package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// Evaluation is the paper's evaluation (Figures 5-8) as a plan of unique
// runs under one budget. Figures and claims are views over it: each reads
// the rows its key list names (keys), and a run whose full spec was
// simulated before is served from the memo, whichever view asked first.
// Plan simulates the misses of several views as one pool of runs. The memo
// lives in the value and nowhere else. Methods are safe for concurrent
// use; goroutines that miss one key at once each simulate it and store
// equal results.
type Evaluation struct {
	b         Budget
	newSystem systemFunc
	mu        sync.Mutex                 // guards runs and a plan call's pool
	runs      map[runKey][]fabric.Result // one Result per run; a priced run's four rows

	simulated, served, built atomic.Int64
}

// systemFunc is NewSystem's signature; tests count builds through it.
type systemFunc func(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System

// spec is what a network is built from: runs of one spec share networks.
type spec struct {
	name  string
	cores int
	cfg   wireless.Config
	scen  wireless.Scenario
}

// runKey is the full spec of one run under the evaluation's budget.
type runKey struct {
	spec
	pattern traffic.Pattern
	rate    float64
	seed    uint64
	// priced marks the run Figures 5 and 6 price under every Table IV
	// configuration (OWN-256 built under the first): its value is four
	// rows, and its network, re-priced, never runs again.
	priced bool
}

// Census counts runs simulated, runs served (read by a figure that did
// not simulate them itself; a priced run is one) and networks built.
type Census struct{ Simulated, Served, Built int64 }

func (c Census) String() string {
	return fmt.Sprintf("plan: %d runs simulated, %d served, %d networks built", c.Simulated, c.Served, c.Built)
}

// NewEvaluation returns an empty plan for budget b.
func NewEvaluation(b Budget) *Evaluation { return newEvaluation(b, NewSystem) }

func newEvaluation(b Budget, newSystem systemFunc) *Evaluation {
	return &Evaluation{b: b, newSystem: newSystem, runs: map[runKey][]fabric.Result{}}
}

// Budget returns the budget every run of the plan shares.
func (e *Evaluation) Budget() Budget { return e.b }

// Census reports the plan's counts so far.
func (e *Evaluation) Census() Census {
	return Census{e.simulated.Load(), e.served.Load(), e.built.Load()}
}

// View is the rows one figure reads, as Plan takes it. Figure is 5, 6, 7
// or 8; a Figure 7 view is a 256-core load sweep of every system per
// pattern (7a sweeps every paper pattern, 7b uniform, 7c bit reversal),
// and a Figure 8 view one 1024-core run of every system per pattern.
type View struct {
	Figure   int
	Patterns []traffic.Pattern
}

// keys lists the runs the views read, in the order their figures read
// them: the one list of a figure's rows, read by the figure and by Plan.
func (e *Evaluation) keys(views ...View) []runKey {
	b := e.b
	run := func(name string, cores int, pat traffic.Pattern, rate float64, seed uint64) runKey {
		return runKey{spec: spec{name, cores, wireless.Config4, wireless.Ideal}, pattern: pat, rate: rate, seed: seed}
	}
	priced := func(scen wireless.Scenario) runKey {
		return runKey{spec{"own", 256, wireless.AllConfigs()[0], scen}, traffic.Uniform, midLoad(256, scen), b.Seed, true}
	}
	var ks []runKey
	for _, v := range views {
		switch v.Figure {
		case 5:
			ks = append(ks, priced(wireless.Ideal), priced(wireless.Conservative))
		case 6:
			ks = append(ks, priced(wireless.Ideal))
			for _, name := range []string{"wcmesh", "optxb", "pclos", "cmesh"} {
				ks = append(ks, run(name, 256, traffic.Uniform, midLoad(256, wireless.Ideal), b.Seed))
			}
		case 7:
			// Point j of a load sweep has seed b.Seed+j, like Sweep's.
			for _, pat := range v.Patterns {
				for _, name := range SystemNames() {
					for j, load := range SweepLoads(256, b.Loads) {
						ks = append(ks, run(name, 256, pat, load, b.Seed+uint64(j)))
					}
				}
			}
		case 8:
			// Permutation patterns concentrate load: well below uniform saturation.
			for _, pat := range v.Patterns {
				for _, name := range SystemNames() {
					ks = append(ks, run(name, 1024, pat, 0.3*topology.UniformSaturationLoad(1024), b.Seed))
				}
			}
		default:
			panic(fmt.Sprintf("core: unknown figure %d", v.Figure))
		}
	}
	return ks
}

// Plan simulates every run the views read that e does not hold yet, as
// one pool (plan). A figure called afterwards on one of the views reads
// the memo: it simulates and builds nothing.
func (e *Evaluation) Plan(views ...View) { e.plan(e.keys(views...)) }

// plan simulates each key of ks that e does not hold, once, and returns
// how many it simulated. One task per run over parallelEach's workers,
// longest first: 1024 cores before 256, then higher rate first, in ks
// order otherwise. A task takes an idle network of its spec or builds one
// (System.run), and gives it back after the run; a network is dropped
// once no pending task has its spec, so networks live as long as their
// spec's runs, not as long as the call. A priced run's network never goes
// back: Meter.PriceWireless survives the rewind.
func (e *Evaluation) plan(ks []runKey) int {
	var miss []runKey
	pending := map[spec]int{} // tasks not yet started, per spec
	idle := map[spec][]*fabric.Network{}
	e.mu.Lock()
	for _, k := range ks {
		if _, ok := e.runs[k]; !ok && !slices.Contains(miss, k) {
			miss = append(miss, k)
			pending[k.spec]++
		}
	}
	e.mu.Unlock()
	slices.SortStableFunc(miss, func(a, b runKey) int {
		return cmp.Or(cmp.Compare(b.cores, a.cores), cmp.Compare(b.rate, a.rate))
	})
	parallelEach(len(miss), func(_ *struct{}, i int) {
		k := miss[i]
		var n *fabric.Network
		e.mu.Lock()
		if free := idle[k.spec]; len(free) > 0 {
			n, idle[k.spec] = free[len(free)-1], free[:len(free)-1]
		}
		if pending[k.spec]--; pending[k.spec] == 0 {
			delete(idle, k.spec)
		}
		e.mu.Unlock()
		v := e.simulate(k, &n)
		e.mu.Lock()
		defer e.mu.Unlock()
		e.runs[k] = v
		if !k.priced && pending[k.spec] > 0 {
			idle[k.spec] = append(idle[k.spec], n)
		}
		e.simulated.Add(1)
	})
	return len(miss)
}

// simulate runs k on *n, building it first if it is nil, and returns its
// value: the Result, or for a priced run the Result priced under each
// configuration's PlanOWN256 energy-per-bit table, in AllConfigs order, on
// the network it ran on. A configuration changes what a wireless bit
// costs and nothing a flit can see: band bandwidth follows the scenario
// alone (wireless.BandPlan), so the four would simulate the same traffic
// cycle for cycle.
func (e *Evaluation) simulate(k runKey, n **fabric.Network) []fabric.Result {
	if *n == nil {
		e.built.Add(1)
	}
	res := e.newSystem(k.name, k.cores, k.cfg, k.scen).run(n, fabric.TrafficSpec{Pattern: k.pattern, Rate: k.rate, Seed: k.seed}, e.b.runSpec())
	if !k.priced {
		return []fabric.Result{res}
	}
	var out []fabric.Result
	for _, cfg := range wireless.AllConfigs() {
		plan := wireless.PlanOWN256(cfg, k.scen)
		epb := make([]float64, len(plan.Channels))
		for id, ch := range plan.Channels {
			epb[id] = ch.EPBpJ
		}
		(*n).Meter.PriceWireless(epb)
		out = append(out, (*n).Priced(res))
	}
	return out
}

// read plans v and returns its keys and their values, in keys order.
func (e *Evaluation) read(v View) ([]runKey, [][]fabric.Result) {
	ks := e.keys(v)
	e.served.Add(int64(len(ks) - e.plan(ks)))
	out := make([][]fabric.Result, len(ks))
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, k := range ks {
		out[i] = e.runs[k]
	}
	return ks, out
}

// midLoad returns the half-saturation operating point used for the power
// figures. The conservative scenario halves wireless channel bandwidth,
// halving OWN's capacity, so its operating point is halved too.
func midLoad(cores int, scen wireless.Scenario) float64 {
	l := 0.5 * topology.UniformSaturationLoad(cores)
	if scen == wireless.Conservative {
		l /= 2
	}
	return l
}

// Fig5Row is one bar of Figure 5: average wireless link power of OWN-256
// under random traffic for one configuration and scenario.
type Fig5Row struct {
	Scenario wireless.Scenario
	Config   wireless.Config
	// AvgChannelMW is the measured per-channel wireless link power.
	AvgChannelMW float64
	// PlanMeanEPBpJ is the analytic plan-level energy/bit for
	// cross-checking.
	PlanMeanEPBpJ float64
}

// Figure5 measures the average wireless link power for the four Table IV
// configurations under both Table III scenarios (OWN-256, uniform random
// traffic at half saturation): one simulation per scenario, priced per
// configuration.
func (e *Evaluation) Figure5() []Fig5Row {
	ks, runs := e.read(View{Figure: 5})
	var rows []Fig5Row
	for i, k := range ks {
		for j, cfg := range wireless.AllConfigs() {
			rows = append(rows, Fig5Row{Scenario: k.scen, Config: cfg, AvgChannelMW: runs[i][j].AvgWirelessChannelMW,
				PlanMeanEPBpJ: wireless.PlanOWN256(cfg, k.scen).MeanEPBpJ()})
		}
	}
	return rows
}

// Fig6Row is one stacked bar of Figure 6: the power breakdown of one
// architecture at 256 cores under uniform random traffic.
type Fig6Row struct {
	Label  string
	Power  power.Breakdown
	Result fabric.Result
}

// Figure6 measures total power for CMESH, wireless-CMESH, OptXB, p-Clos
// and OWN-256 in all four configurations (ideal scenario), at the shared
// half-saturation uniform load. The four OWN bars are one simulation
// priced per configuration: Figure 5's ideal run.
func (e *Evaluation) Figure6() []Fig6Row {
	ks, runs := e.read(View{Figure: 6})
	var rows []Fig6Row
	for i, k := range ks {
		for j, res := range runs[i] {
			label := k.name
			if k.priced {
				label = "own-" + wireless.AllConfigs()[j].String()
			}
			rows = append(rows, Fig6Row{Label: label, Power: res.Power, Result: res})
		}
	}
	return rows
}

// Fig7aRow is one bar group of Figure 7(a): saturation throughput per
// synthetic pattern per architecture at 256 cores.
type Fig7aRow struct {
	Pattern    traffic.Pattern
	SystemName string
	Throughput float64 // accepted flits/node/cycle at saturation
}

// Figure7a sweeps every paper pattern on every architecture: a row is the
// plateau of one Figure 7 curve.
func (e *Evaluation) Figure7a() []Fig7aRow {
	pats := traffic.AllPaperPatterns()
	var rows []Fig7aRow
	for i, s := range e.Figure7bc(pats...) {
		rows = append(rows, Fig7aRow{Pattern: pats[i/len(SystemNames())], SystemName: s.SystemName, Throughput: stats.SaturationThroughput(s.Points)})
	}
	return rows
}

// Fig7bcSeries is one curve of Figure 7(b) or (c): latency vs offered
// load for one architecture.
type Fig7bcSeries struct {
	SystemName string
	Points     []stats.CurvePoint
	// SaturationLoad is the interpolated 3x-zero-load latency crossing.
	SaturationLoad float64
	// CapacityLoad is the highest load where accepted throughput still
	// tracks offered load (the latency-curve knee).
	CapacityLoad float64
}

// Figure7bc produces the latency-load curves of every architecture for
// the given patterns (uniform for 7b, bit reversal for 7c) at 256 cores,
// pattern-major: Figure7a's runs.
func (e *Evaluation) Figure7bc(patterns ...traffic.Pattern) []Fig7bcSeries {
	ks, runs := e.read(View{Figure: 7, Patterns: patterns})
	var series []Fig7bcSeries
	for i := 0; i < len(ks); i += e.b.Loads {
		pts := make([]stats.CurvePoint, e.b.Loads)
		for j := range pts {
			res := runs[i+j][0]
			pts[j] = stats.CurvePoint{Load: ks[i+j].rate, Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: res.Saturated()}
		}
		series = append(series, Fig7bcSeries{SystemName: ks[i].name, Points: pts,
			SaturationLoad: stats.SaturationLoad(pts, 3.0), CapacityLoad: stats.CapacityLoad(pts)})
	}
	return series
}

// Fig8Row is one group of Figure 8: throughput and power per packet for
// one architecture and pattern at 1024 cores.
type Fig8Row struct {
	SystemName string
	Pattern    traffic.Pattern
	Throughput float64
	// EnergyPerPacketPJ is the paper's 8(b) metric ("average power
	// consumed per packet").
	EnergyPerPacketPJ float64
	Power             power.Breakdown
}

// Figure8 evaluates the 1024-core architectures on the given patterns (the
// figure has uniform, bit reversal and transpose; its claims read uniform)
// at a shared sub-saturation load, pattern-major.
func (e *Evaluation) Figure8(patterns ...traffic.Pattern) []Fig8Row {
	ks, runs := e.read(View{Figure: 8, Patterns: patterns})
	rows := make([]Fig8Row, len(ks))
	for i, k := range ks {
		res := runs[i][0]
		rows[i] = Fig8Row{SystemName: k.name, Pattern: k.pattern, Throughput: res.Throughput,
			EnergyPerPacketPJ: EnergyPerPacketPJ(res, 1024), Power: res.Power}
	}
	return rows
}

// EnergyPerPacketPJ converts a run's average power into energy per
// delivered packet: total mW (= pJ/ns) divided by the packet delivery
// rate per ns.
func EnergyPerPacketPJ(res fabric.Result, cores int) float64 {
	if res.Throughput <= 0 {
		return 0
	}
	pktsPerCycle := res.Throughput * float64(cores) / float64(topology.PktFlits)
	pktsPerNS := pktsPerCycle * topology.ClockGHz
	return float64(res.Power.TotalMW()) / pktsPerNS
}
