package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/report"
)

// tinySpec is the 16-tile cluster fixture at a load it drains, with a
// window short enough for tier-1.
func tinySpec() netSpec {
	return netSpec{build: buildCluster16, rate: 0.1, run: fabric.RunSpec{Warmup: 100, Measure: 3000}}
}

func tinyWorkload(call func(uint64, *tracer) sample) workload {
	return workload{Name: "tiny", Builds: []func() *fabric.Network{buildCluster16}, Call: call}
}

// lastLine decodes the verdict a run printed as its last line.
func lastLine(t *testing.T, out string) verdict {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not a verdict: %v\n%s", err, out)
	}
	return v
}

// runTiny runs one pass of a workload for a twentieth of a second and
// returns the exit code and the verdict.
func runTiny(t *testing.T, w workload, traced bool) (int, verdict) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := runOne(w, 1, 0.05, traced, true, t.TempDir(), &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Fatalf("stderr: %s", stderr.String())
	}
	return code, lastLine(t, stdout.String())
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name+" "+d.Unit+" "+d.Better)
	}
	return out
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var ws []workload
	for _, w := range workloads() {
		if !w.Ungated {
			ws = append(ws, w)
		}
	}
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d gated ones", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !valid.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why is outside the contract's limits", w.Name)
		}
	}
	for _, side := range []struct {
		kind       string
		file, code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer()}} {
		if a, b := strings.Join(names(side.file), "\n"), strings.Join(names(side.code), "\n"); a != b {
			t.Errorf("%s differs.\nBENCHMARK.json:\n%s\nharness:\n%s", side.kind, a, b)
		}
		seen := map[string]bool{}
		for _, d := range side.file {
			if !valid.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q is invalid or repeated", side.kind, d.Name)
			}
			seen[d.Name] = true
			if side.kind == "end_to_end" && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(bf.PerLayer))
	}
}

// TestRunEmitsDeclaredMetrics runs both passes on the small fixture and
// checks that each prints exactly the metrics declared for it.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	w := tinyWorkload(tinySpec().call)
	for _, pass := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer()}} {
		code, v := runTiny(t, w, pass.traced)
		if code != 0 || !v.Correct || v.Failed != 0 || v.Attempted < 1 {
			t.Fatalf("traced=%v: exit %d, verdict %+v", pass.traced, code, v)
		}
		if len(v.Metrics) != len(pass.defs) {
			t.Errorf("traced=%v: %d metrics printed, %d declared", pass.traced, len(v.Metrics), len(pass.defs))
		}
		for _, d := range pass.defs {
			m, ok := v.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("traced=%v: metric %s printed as %+v (present %v)", pass.traced, d.Name, m, ok)
			}
			if !pass.traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, m.Value)
			}
		}
	}
}

// TestFullRunMeasuresLadderItself: a traced child of the full run leaves
// the ladder out, and nothing else.
func TestFullRunMeasuresLadderItself(t *testing.T) {
	r, err := runTraced(tinyWorkload(tinySpec().call), 1, 0.05, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer() {
		if _, ok := r.Metrics[d.Name]; ok == isLadder(d.Name) {
			t.Errorf("metric %s present=%v in a run without the ladder", d.Name, ok)
		}
	}
}

// TestPoolMergesRounds: the full run's untraced result is the median over
// the calls of all its rounds, and rounds that disagree on the fingerprint
// are a failed check.
func TestPoolMergesRounds(t *testing.T) {
	round := func(fp string, runS ...float64) *runResult {
		r := &runResult{Workload: "tiny", Seed: 1, Calls: len(runS), Ops: 4, Fingerprint: fp,
			Samples: map[string][]float64{"run_s": runS, "peak_rss_mb": {float64(len(runS))}}}
		r.summarize()
		return r
	}
	p := pool([]*runResult{round("f", 1, 2), round("f", 9, 10, 11), round("f", 3)})
	if p.Calls != 6 || p.Ops != 13 || p.FailedOps != 0 || p.Fingerprint != "f" {
		t.Errorf("pooled %+v", p)
	}
	if got := p.Metrics["run_s"].Value; got != 6 || p.Dists["run_s"].N != 6 || p.Dists["run_s"].Max != 11 {
		t.Errorf("run_s pooled to %v (%+v), want the median 6 of six calls", got, p.Dists["run_s"])
	}
	if got := p.Metrics["peak_rss_mb"].Value; got != 2 {
		t.Errorf("peak_rss_mb pooled to %v, want the median 2 over the three processes", got)
	}
	if got := fmt.Sprint(p.RoundMedians["run_s"]); got != "[1.5 10 3]" {
		t.Errorf("round medians of run_s are %s, want [1.5 10 3]", got)
	}
	if p := pool([]*runResult{round("f", 1), round("g", 1)}); p.FailedOps != 1 {
		t.Errorf("rounds with different fingerprints pooled with %d failed checks, want 1", p.FailedOps)
	}
}

func TestOversaturatedRunFails(t *testing.T) {
	ns := tinySpec()
	ns.rate = 1.0 // three times what the cluster accepts
	ns.run.DrainBudget = 500
	code, v := runTiny(t, tinyWorkload(ns.call), false)
	if code == 0 || v.Correct || v.Failed == 0 {
		t.Fatalf("over-saturated run passed: exit %d, verdict %+v", code, v)
	}
}

func TestFingerprintMismatchFails(t *testing.T) {
	ns := tinySpec()
	calls := 0
	drifting := func(seed uint64, tr *tracer) sample {
		s := ns.call(seed, tr)
		s.FP += fmt.Sprint(calls)
		calls++
		return s
	}
	code, v := runTiny(t, tinyWorkload(drifting), false)
	if code == 0 || v.Failed != 1 {
		t.Fatalf("drifting fingerprint: exit %d, verdict %+v, want exactly the stability check failed", code, v)
	}

	// An observer that changes the outcome shows as a twin mismatch.
	w := tinyWorkload(ns.call)
	w.Twin = func(seed uint64, tr *tracer) sample {
		s := ns.call(seed, tr)
		s.FP += "!"
		return s
	}
	code, v = runTiny(t, w, false)
	if code == 0 || v.Failed != 1 {
		t.Fatalf("twin mismatch: exit %d, verdict %+v, want exactly the twin check failed", code, v)
	}
}

func TestFailingClaimFails(t *testing.T) {
	rep := report.Report{Claims: []report.Claim{{ID: "fig/a", Pass: true}, {ID: "fig/b", Pass: false}, {ID: "fig/c", Pass: true}}}
	call := func(uint64, *tracer) sample {
		var s sample
		checkClaims(&s, rep)
		return s
	}
	code, v := runTiny(t, tinyWorkload(call), false)
	// One failed op per call: the warm-up and at least three timed calls.
	if code == 0 || v.Correct || v.Failed < 1+minCalls || v.Failed*4 != v.Attempted-1 {
		t.Fatalf("failing claim: exit %d, verdict %+v", code, v)
	}
}

// --- canned profile ---

type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}
func (w *pbWriter) uintField(num int, v uint64) { w.varint(uint64(num)<<3 | 0); w.varint(v) }
func (w *pbWriter) bytesField(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}
func packed(vs ...uint64) []byte {
	var w pbWriter
	for _, v := range vs {
		w.varint(v)
	}
	return w.Bytes()
}

// cannedProfile encodes a CPU profile of four samples over five functions
// the way runtime/pprof does (packed ids, gzip).
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"ownsim/internal/router.(*Router).Tick", // 1
		"ownsim/internal/sim.(*Engine).Step",    // 2
		"runtime.mallocgc",                      // 3
		"runtime.memmove",                       // 4
		"ownsim/internal/rf.(*PA).GainDB",       // 5
	}
	var p pbWriter
	sample := func(cpuNS uint64, locs ...uint64) {
		var s pbWriter
		s.bytesField(1, packed(locs...))
		s.bytesField(2, packed(1, cpuNS))
		p.bytesField(2, s.Bytes())
	}
	sample(30e6, 1, 2)    // router leaf under sim
	sample(20e6, 2)       // sim leaf
	sample(10e6, 4, 3, 1) // memmove inside mallocgc called by router
	sample(40e6, 4, 1)    // memmove called by router: runtime, not GC
	sample(5e6, 5)        // rf books to report
	for id := uint64(1); id <= 5; id++ {
		var line, loc, fn pbWriter
		line.uintField(1, id)
		loc.uintField(1, id)
		loc.bytesField(4, line.Bytes())
		p.bytesField(4, loc.Bytes())
		fn.uintField(1, id)
		fn.uintField(2, id)
		p.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAggregationSumsToTotal(t *testing.T) {
	byLayer, total, err := aggregateProfiles([][]byte{cannedProfile(t), cannedProfile(t)})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"router": 0.06, "sim": 0.04, "runtime.malloc_gc": 0.02, "runtime.other": 0.08, "report": 0.01}
	var sum float64
	for l, v := range byLayer {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("layer %s: %v s, want %v", l, v, want[l])
		}
	}
	if len(byLayer) != len(want) || math.Abs(sum-total) > 1e-12 || math.Abs(total-0.21) > 1e-12 {
		t.Errorf("layers %v sum to %v, total %v, want 0.21", byLayer, sum, total)
	}
	for l := range byLayer {
		known := false
		for _, k := range profLayers {
			known = known || k == l
		}
		if !known {
			t.Errorf("layer %q is not a reported layer", l)
		}
	}
	if _, _, err := aggregateProfiles([][]byte{cannedProfile(t)[:40]}); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

// --- compare ---

func compareFixture(runS, q1, q3 float64, failed int) *resultSet {
	set := &resultSet{Workloads: map[string]*workloadSet{}}
	for _, w := range workloads() {
		set.Workloads[w.Name] = &workloadSet{Untraced: &runResult{
			Ops: 10, FailedOps: failed, Fingerprint: "f",
			Metrics: map[string]metricValue{"run_s": {Value: runS, Unit: "s"}},
			// Three rounds whose quartiles are q1 and q3.
			RoundMedians: map[string][]float64{"run_s": {2*q1 - runS, runS, 2*q3 - runS}},
		}}
	}
	return set
}

func TestCompareStatuses(t *testing.T) {
	defs := []metricDef{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}}
	base := compareFixture(1.00, 0.99, 1.01, 0)
	for _, tc := range []struct {
		name   string
		b      *resultSet
		holds  bool
		status string
	}{
		{"same", compareFixture(1.02, 1.01, 1.03, 0), true, " ok"},
		{"slower", compareFixture(1.15, 1.14, 1.16, 0), false, "outside-bound"},
		{"noisy", compareFixture(1.02, 0.90, 1.20, 0), true, "unresolved"},
		{"noisy but all faster", compareFixture(0.50, 0.45, 0.60, 0), true, " ok"},
		{"more failures", compareFixture(1.00, 0.99, 1.01, 1), false, "more-failures"},
		{"zero median", compareFixture(0, 0, 0, 0), false, "missing"},
	} {
		var out bytes.Buffer
		if holds := compareSets(base, tc.b, defs, &out); holds != tc.holds || !strings.Contains(out.String(), tc.status) {
			t.Errorf("%s: holds=%v, want %v with status %q:\n%s", tc.name, holds, tc.holds, tc.status, out.String())
		}
	}
	if compareSets(base, &resultSet{}, defs, io.Discard) {
		t.Error("a set with no workloads compared as holding")
	}
}
