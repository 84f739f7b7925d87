package core

import (
	"fmt"
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
// runs under one budget. Figures and claims are views over it: each asks
// for the rows it reads, and a run whose full spec was simulated before is
// served from the memo, whichever view asked first. The memo lives in the
// value and nowhere else. Methods are safe for concurrent use; goroutines
// that miss one key at once each simulate it and store equal results.
type Evaluation struct {
	b         Budget
	newSystem systemFunc
	mu        sync.Mutex // guards the two memos
	runs      map[runKey]fabric.Result
	priced    map[runKey][]fabric.Result // ownPerConfig's rows, by the run they price

	simulated, served, built atomic.Int64
}

// systemFunc is NewSystem's signature; tests count builds through it.
type systemFunc func(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System

// runKey is the full spec of one run under the evaluation's budget.
type runKey struct {
	name    string
	cores   int
	cfg     wireless.Config
	scen    wireless.Scenario
	pattern traffic.Pattern
	rate    float64
	seed    uint64
}

// Census counts runs simulated, requests served from the plan
// (ownPerConfig's four rows are one request) and networks built.
type Census struct{ Simulated, Served, Built int64 }

func (c Census) String() string {
	return fmt.Sprintf("plan: %d runs simulated, %d served, %d networks built", c.Simulated, c.Served, c.Built)
}

// NewEvaluation returns an empty plan for budget b.
func NewEvaluation(b Budget) *Evaluation { return newEvaluation(b, NewSystem) }

func newEvaluation(b Budget, newSystem systemFunc) *Evaluation {
	return &Evaluation{b: b, newSystem: newSystem, runs: map[runKey]fabric.Result{}, priced: map[runKey][]fabric.Result{}}
}

// Budget returns the budget every run of the plan shares.
func (e *Evaluation) Budget() Budget { return e.b }

// Census reports the plan's counts so far.
func (e *Evaluation) Census() Census {
	return Census{e.simulated.Load(), e.served.Load(), e.built.Load()}
}

// planned returns memo[k], simulating it with run (lock not held) on a miss.
func planned[V any](e *Evaluation, memo map[runKey]V, k runKey, run func() V) V {
	e.mu.Lock()
	v, ok := memo[k]
	e.mu.Unlock()
	if ok {
		e.served.Add(1)
		return v
	}
	v = run()
	e.simulated.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	memo[k] = v
	return v
}

// system returns the named system with a Build that counts into the census.
func (e *Evaluation) system(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System {
	sys := e.newSystem(name, cores, cfg, scen)
	build := sys.Build
	sys.Build = func(m *power.Meter) *fabric.Network {
		e.built.Add(1)
		return build(m)
	}
	return sys
}

// runEach returns the named config-4, ideal-scenario system's runs of
// points, in order. The first miss builds the network and every miss runs
// on that one (System.run): a row group costs the cycles nobody simulated
// before and at most one build, and reads what a fresh build per point
// reads.
func (e *Evaluation) runEach(name string, cores int, points []fabric.TrafficSpec) []fabric.Result {
	sys := e.system(name, cores, wireless.Config4, wireless.Ideal)
	var net *fabric.Network
	out := make([]fabric.Result, len(points))
	for j, ts := range points {
		k := runKey{name, cores, wireless.Config4, wireless.Ideal, ts.Pattern, ts.Rate, ts.Seed}
		out[j] = planned(e, e.runs, k, func() fabric.Result { return sys.run(&net, ts, e.b.runSpec()) })
	}
	return out
}

// loadSweep runs pattern on the named 256-core system across the load axis,
// point j with seed b.Seed+j like Sweep, serially (figures parallelize systems).
func (e *Evaluation) loadSweep(name string, pattern traffic.Pattern) ([]float64, []fabric.Result) {
	loads := SweepLoads(256, e.b.Loads)
	points := make([]fabric.TrafficSpec, len(loads))
	for j, load := range loads {
		points[j] = fabric.TrafficSpec{Pattern: pattern, Rate: load, Seed: e.b.Seed + uint64(j)}
	}
	return loads, e.runEach(name, 256, points)
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

// ownPerConfig simulates OWN-256 under scen once and prices the run under
// each Table IV configuration's PlanOWN256 energy-per-bit table, in
// AllConfigs order (Figure 6's OWN bars are Figure 5's ideal rows). A
// configuration changes what a wireless bit costs and nothing a flit can
// see: band bandwidth follows the scenario alone (wireless.BandPlan), so
// the four would simulate the same traffic cycle for cycle.
func (e *Evaluation) ownPerConfig(scen wireless.Scenario, load float64) []fabric.Result {
	cfgs := wireless.AllConfigs()
	k := runKey{"own", 256, cfgs[0], scen, traffic.Uniform, load, e.b.Seed}
	return planned(e, e.priced, k, func() []fabric.Result {
		var n *fabric.Network
		ts := fabric.TrafficSpec{Pattern: k.pattern, Rate: k.rate, Seed: k.seed}
		res := e.system(k.name, k.cores, k.cfg, k.scen).run(&n, ts, e.b.runSpec())
		out := make([]fabric.Result, 0, len(cfgs))
		for _, cfg := range cfgs {
			plan := wireless.PlanOWN256(cfg, scen)
			epb := make([]float64, len(plan.Channels))
			for id, ch := range plan.Channels {
				epb[id] = ch.EPBpJ
			}
			n.Meter.PriceWireless(epb)
			out = append(out, n.Priced(res))
		}
		return out
	})
}

// Figure5 measures the average wireless link power for the four Table IV
// configurations under both Table III scenarios (OWN-256, uniform random
// traffic at half saturation): one simulation per scenario, priced per
// configuration.
func (e *Evaluation) Figure5() []Fig5Row {
	scens := []wireless.Scenario{wireless.Ideal, wireless.Conservative}
	cfgs := wireless.AllConfigs()
	rows := make([]Fig5Row, len(scens)*len(cfgs))
	ParallelMap(len(scens), func(i int) {
		scen := scens[i]
		priced := e.ownPerConfig(scen, midLoad(256, scen))
		for j, cfg := range cfgs {
			rows[i*len(cfgs)+j] = Fig5Row{
				Scenario:      scen,
				Config:        cfg,
				AvgChannelMW:  priced[j].AvgWirelessChannelMW,
				PlanMeanEPBpJ: wireless.PlanOWN256(cfg, scen).MeanEPBpJ(),
			}
		}
	})
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
// priced per configuration (ownPerConfig).
func (e *Evaluation) Figure6() []Fig6Row {
	cfgs := wireless.AllConfigs()
	others := []string{"wcmesh", "optxb", "pclos", "cmesh"}
	rows := make([]Fig6Row, len(cfgs)+len(others))
	load := midLoad(256, wireless.Ideal)
	ParallelMap(1+len(others), func(i int) {
		if i == 0 {
			for j, res := range e.ownPerConfig(wireless.Ideal, load) {
				rows[j] = Fig6Row{Label: "own-" + cfgs[j].String(), Power: res.Power, Result: res}
			}
			return
		}
		name := others[i-1]
		res := e.runEach(name, 256, []fabric.TrafficSpec{{Pattern: traffic.Uniform, Rate: load, Seed: e.b.Seed}})[0]
		rows[len(cfgs)+i-1] = Fig6Row{Label: name, Power: res.Power, Result: res}
	})
	return rows
}

// Fig7aRow is one bar group of Figure 7(a): saturation throughput per
// synthetic pattern per architecture at 256 cores.
type Fig7aRow struct {
	Pattern    traffic.Pattern
	SystemName string
	Throughput float64 // accepted flits/node/cycle at saturation
}

// Figure7a sweeps every paper pattern on every architecture.
func (e *Evaluation) Figure7a() []Fig7aRow {
	var rows []Fig7aRow
	for _, pat := range traffic.AllPaperPatterns() {
		for _, name := range SystemNames() {
			rows = append(rows, Fig7aRow{Pattern: pat, SystemName: name})
		}
	}
	ParallelMap(len(rows), func(i int) {
		_, results := e.loadSweep(rows[i].SystemName, rows[i].Pattern)
		for _, res := range results {
			rows[i].Throughput = max(rows[i].Throughput, res.Throughput)
		}
	})
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

// Figure7bc produces the latency-load curves for the given pattern
// (uniform for 7b, bit reversal for 7c) at 256 cores: Figure7a's runs.
func (e *Evaluation) Figure7bc(pattern traffic.Pattern) []Fig7bcSeries {
	names := SystemNames()
	series := make([]Fig7bcSeries, len(names))
	ParallelMap(len(names), func(i int) {
		loads, results := e.loadSweep(names[i], pattern)
		pts := make([]stats.CurvePoint, len(loads))
		for j, res := range results {
			pts[j] = stats.CurvePoint{Load: loads[j], Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: res.Saturated()}
		}
		series[i] = Fig7bcSeries{
			SystemName:     names[i],
			Points:         pts,
			SaturationLoad: stats.SaturationLoad(pts, 3.0),
			CapacityLoad:   stats.CapacityLoad(pts),
		}
	})
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
// at a shared sub-saturation load, one network per architecture, pattern-major.
func (e *Evaluation) Figure8(patterns ...traffic.Pattern) []Fig8Row {
	names := SystemNames()
	rows := make([]Fig8Row, len(patterns)*len(names))
	// Permutation patterns concentrate load: well below uniform saturation.
	points := make([]fabric.TrafficSpec, len(patterns))
	for j, pat := range patterns {
		points[j] = fabric.TrafficSpec{Pattern: pat, Rate: 0.3 * topology.UniformSaturationLoad(1024), Seed: e.b.Seed}
	}
	ParallelMap(len(names), func(i int) {
		results := e.runEach(names[i], 1024, points)
		for j, res := range results {
			rows[j*len(names)+i] = Fig8Row{
				SystemName: names[i], Pattern: patterns[j], Throughput: res.Throughput,
				EnergyPerPacketPJ: EnergyPerPacketPJ(res, 1024), Power: res.Power,
			}
		}
	})
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
