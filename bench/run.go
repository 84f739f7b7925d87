package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ownsim/internal/fabric"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line a run prints: the driver's contract.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is everything one run of one workload measured; the full
// benchmark stores it, the single-workload mode prints it as the "detail"
// line ahead of the verdict.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Calls is the number of timed calls behind each median.
	Calls     int      `json:"calls"`
	Ops       int      `json:"ops"`
	FailedOps int      `json:"failed_ops"`
	Notes     []string `json:"notes,omitempty"`
	// Fingerprint is the FNV-1a hash of the simulated outcome: of the
	// first three timed calls' on the untraced pass, of -seed's alone on
	// the traced pass. Two commits with equal fingerprints simulated
	// identical statistics.
	Fingerprint string                 `json:"fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Samples holds the sampled end-to-end metrics call by call (peak_rss_mb
	// once per process); Dists their quartiles and extremes.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Dists   map[string]dist      `json:"dists,omitempty"`
	// RoundMedians holds, in a full run's pooled result, each end-to-end
	// metric as each round's process reported it. The rounds simulate the
	// same inputs, so what differs between them is the host: -compare takes
	// the spread between runs from here.
	RoundMedians map[string][]float64 `json:"round_medians,omitempty"`
}

func (r *runResult) verdict() verdict {
	return verdict{Correct: r.FailedOps == 0, Attempted: r.Ops, Failed: r.FailedOps, Metrics: r.Metrics}
}

// absorb adds a call's checks to the run's tally.
func (r *runResult) absorb(s sample) {
	r.Ops += s.Ops
	r.FailedOps += s.Failed
	r.Notes = append(r.Notes, s.Notes...)
}

func (r *runResult) check(ok bool, format string, args ...any) {
	var s sample
	s.check(ok, format, args...)
	r.absorb(s)
}

// checkStable scores the cross-call checks: every call simulated the same
// thing as the warm-up did, and the twin without observers did too.
func (r *runResult) checkStable(warm sample, calls []sample, twin *sample) {
	stable := true
	for _, c := range calls {
		stable = stable && c.FP == warm.FP
	}
	r.check(stable, "fingerprint changed between calls of the same seed: the simulation is not deterministic")
	if twin != nil {
		r.check(twin.FP == warm.FP, "fingerprint %s differs from the unobserved twin's %s: an observer is not inert", warm.FP, twin.FP)
	}
}

const (
	// minCalls is the fewest timed calls a median is taken over.
	minCalls = 3
	// setupSamples is the number of setup_s samples in a run; each one
	// repeats the workload's builds for a fortieth of the run's seconds
	// (0.4 s at the benchmark's 16).
	setupSamples = 7
)

// repeat makes call 0, 1, ... until budget seconds have elapsed and at
// least min calls were made, adding each call's checks to the run's tally.
func (r *runResult) repeat(min int, budget float64, call func(i int) sample) []sample {
	var out []sample
	for start := time.Now(); len(out) < min || time.Since(start).Seconds() < budget; {
		s := call(len(out))
		r.absorb(s)
		out = append(out, s)
	}
	return out
}

func column[T any](calls []sample, f func(sample) T) []T {
	xs := make([]T, len(calls))
	for i, c := range calls {
		xs[i] = f(c)
	}
	return xs
}

func wallS(s sample) float64 { return s.WallS }
func cpuS(s sample) float64  { return s.CPUS }

// sampleSetup times the workload's network builds: the per-repetition
// seconds of building each distinct network once, repeated for at least
// sampleS seconds per sample.
func sampleSetup(builds []func() *fabric.Network, sampleS float64) []float64 {
	xs := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		reps := 0
		t0 := time.Now()
		for reps == 0 || time.Since(t0).Seconds() < sampleS {
			for _, b := range builds {
				sink += uint64(b().NumCores)
			}
			reps++
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(reps))
	}
	return xs
}

// callSeed derives the seed of a run's i-th timed call. Each call of an
// untraced run simulates another input, so a run's time medians depend
// less on any one of them: with -seed for every call, ten runs on ten
// seeds spread (interquartile range over median) by 9 % on own256-sat's
// run_s and 20-25 % on sweep1024-curve's from the inputs alone, against
// 3-5 % and 9 % for one seed repeated, and no bound may exceed 25 %. The
// stride keeps the calls of runs with neighbouring -seed values apart.
// Call 0 (and the warm-up, the twin and the whole traced pass) uses -seed
// itself.
func callSeed(seed uint64, i int) uint64 { return seed + 1009*uint64(i) }

// tightGCPercent is the GOGC of an untraced run's warm-up call, which also
// runs on one core, and after which peak_rss_mb is read. With the default
// 100 and two cores the peak is a matter of timing: the heap may grow to
// twice what is live before the collector starts, and which of a parallel
// workload's networks are alive together depends on which worker finishes
// first. Ten runs of claims-quick, whose input never changes, peaked at 119
// to 200 MB; with the collector tight alone at 69 to 123 MB, on one core
// alone at 97 to 107 MB, with both at 61 to 65 MB. So the metric is what the
// workload keeps live when its parts run one after another.
const tightGCPercent = 10

// runUntraced measures the end-to-end metrics: the warm-up call and the
// peak_rss_mb reading, timed calls back to back for the given seconds, then
// the set-up samples.
func runUntraced(w workload, seed uint64, seconds float64) *runResult {
	r := &runResult{Workload: w.Name, Seed: seed}
	gcPercent := debug.SetGCPercent(tightGCPercent)
	procs := runtime.GOMAXPROCS(1)
	warm := w.Call(seed, nil)
	peakRSS := peakRSSMB()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	r.absorb(warm)
	var twin *sample
	if w.Twin != nil {
		t := w.Twin(seed, nil)
		r.absorb(t)
		twin = &t
	}
	calls := r.repeat(minCalls, seconds, func(i int) sample { return w.Call(callSeed(seed, i), nil) })
	r.Calls = len(calls)
	// The first call repeats the warm-up's seed: same seed, same bits.
	r.checkStable(warm, calls[:1], twin)
	// The first minCalls calls exist in every run, whatever its length and
	// the host's speed: the fingerprint and the two allocation metrics are
	// taken over them alone, and so depend on -seed and the program only.
	first := calls[:minCalls]
	r.Fingerprint = fingerprint(column(first, func(s sample) string { return s.FP }))
	r.Samples = map[string][]float64{
		"run_s":            column(calls, wallS),
		"run_cpu_s":        column(calls, cpuS),
		"setup_s":          sampleSetup(w.Builds, seconds/40),
		"allocs_per_run":   column(first, func(s sample) float64 { return float64(s.Mallocs) }),
		"alloc_mb_per_run": column(first, func(s sample) float64 { return float64(s.AllocBytes) / (1 << 20) }),
		"peak_rss_mb":      {peakRSS},
	}
	r.summarize()
	return r
}

// summarize fills Dists and Metrics from Samples: every end-to-end metric
// is the median of its samples.
func (r *runResult) summarize() {
	r.Dists = map[string]dist{}
	r.Metrics = map[string]metricValue{}
	for _, d := range endToEnd {
		r.Dists[d.Name] = summarize(r.Samples[d.Name])
		r.Metrics[d.Name] = metricValue{Value: r.Dists[d.Name].Median, Unit: d.Unit}
	}
}

// runTraced measures the per-layer metrics: a warm-up, untraced reference
// calls (and the observer-free twin's, where there is one), then calls
// under harness spans and CPU profiling, then the ladder unless the caller
// measures it itself. The spans go to traceDir.
func runTraced(w workload, seed uint64, seconds float64, withLadder bool, traceDir string) (*runResult, error) {
	r := &runResult{Workload: w.Name, Seed: seed, Traced: true}
	warm := w.Call(seed, nil)
	r.absorb(warm)

	// Two fifths of the time go to the references the ratios are taken
	// against, the rest to the traced calls.
	refBudget := 0.4 * seconds
	var twins []sample
	if w.Twin != nil {
		refBudget /= 2
		twins = r.repeat(2, refBudget, func(int) sample { return w.Twin(seed, nil) })
	}
	refs := r.repeat(2, refBudget, func(int) sample { return w.Call(seed, nil) })

	tr := newTracer()
	calls := r.repeat(minCalls, 0.6*seconds, func(int) sample { return w.Call(seed, tr) })
	r.Calls = len(calls)
	var twin *sample
	if len(twins) > 0 {
		twin = &twins[0]
	}
	r.checkStable(warm, refs, twin)
	r.checkStable(warm, calls, nil)
	r.Fingerprint = warm.FP
	counts := calls[0].Counts
	countsFP := fingerprint(counts)
	stable := true
	for _, c := range calls {
		stable = stable && fingerprint(c.Counts) == countsFP
	}
	r.check(stable, "the program's counters changed between calls of the same seed")

	profiles := make([][]byte, len(tr.profiles))
	for i, b := range tr.profiles {
		profiles[i] = b.Bytes()
	}
	byLayer, profTotal, err := aggregateProfiles(profiles)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(traceDir, "trace-"+w.Name+".json"), w.Name); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	n := float64(len(calls))
	vals := map[string]float64{}
	for _, l := range profLayers {
		vals[layerMetric(l)] = byLayer[l] / n
	}
	for _, s := range spanMetrics {
		vals[s+"_s"] = tr.seconds(s) / n
	}
	for k, v := range counts {
		vals[k] = v
	}
	refRunS := median(column(refs, wallS))
	var tracedCPU float64
	for _, c := range calls {
		tracedCPU += c.CPUS
	}
	vals["trace.overhead_ratio"] = median(column(calls, wallS)) / refRunS
	vals["trace.profile_cpu_ratio"] = profTotal / tracedCPU
	vals["core.cpu_utilization"] = median(column(refs, cpuS)) / (refRunS * float64(runtime.GOMAXPROCS(0)))
	vals["fabric.sim_cycles_per_s"] = counts["sim.cycles"] / refRunS
	if hops := counts["router.flit_hops"]; hops > 0 {
		vals["fabric.host_ns_per_flit_hop"] = refRunS * 1e9 / hops
	}
	if len(twins) > 0 {
		vals["observer.overhead_ratio"] = refRunS / median(column(twins, wallS))
	}
	if withLadder {
		for name, v := range measureLadder() {
			vals[name] = v
		}
	}

	r.Metrics = map[string]metricValue{}
	for _, d := range perLayer() {
		if v, ok := vals[d.Name]; ok || !isLadder(d.Name) {
			r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return r, nil
}

// print writes the run for a reader.
func (r *runResult) print(out io.Writer, defs []metricDef) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "%s seed %d, %s pass: %d timed calls, %d checks, %d failed, fingerprint %s\n",
		r.Workload, r.Seed, pass, r.Calls, r.Ops, r.FailedOps, r.Fingerprint)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-30s %16.6g %-6s", d.Name, m.Value, d.Unit)
		if ds, ok := r.Dists[d.Name]; ok && ds.N > 1 {
			// Fewer than eleven samples beyond it: no tail percentile is quoted.
			fmt.Fprintf(out, "  q1 %.6g q3 %.6g min %.6g max %.6g n %d", ds.Q1, ds.Q3, ds.Min, ds.Max, ds.N)
		}
		fmt.Fprintln(out)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  FAILED: %s\n", n)
	}
}

// printVerdict writes the detail line and the verdict line for programs.
func (r *runResult) printVerdict(out io.Writer) error {
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	last, err := json.Marshal(r.verdict())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "detail %s\n%s\n", detail, last)
	return err
}
