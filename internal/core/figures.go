package core

import (
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

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

// ownPerConfig simulates sys — OWN-256 under scen, whatever its
// configuration — once and prices the run under each Table IV
// configuration's PlanOWN256 energy-per-bit table, in AllConfigs order. A
// configuration changes what a wireless bit costs and nothing a flit can
// see: band bandwidth follows the scenario alone (wireless.BandPlan), so
// the four would simulate the same traffic cycle for cycle.
func ownPerConfig(sys System, scen wireless.Scenario, load float64, b Budget) []fabric.Result {
	n := sys.Build(power.NewMeter(nil))
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: load, Seed: b.Seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
	)
	cfgs := wireless.AllConfigs()
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
}

// Figure5 measures the average wireless link power for the four Table IV
// configurations under both Table III scenarios (OWN-256, uniform random
// traffic at half saturation): one simulation per scenario, priced per
// configuration.
func Figure5(b Budget) []Fig5Row { return figure5(b, NewSystem) }

// systemFunc is NewSystem's signature; the priced-once equivalence test
// passes a wrapper that counts the networks built.
type systemFunc func(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System

func figure5(b Budget, newSystem systemFunc) []Fig5Row {
	scens := []wireless.Scenario{wireless.Ideal, wireless.Conservative}
	cfgs := wireless.AllConfigs()
	rows := make([]Fig5Row, len(scens)*len(cfgs))
	ParallelMap(len(scens), func(i int) {
		scen := scens[i]
		priced := ownPerConfig(newSystem("own", 256, cfgs[0], scen), scen, midLoad(256, scen), b)
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
func Figure6(b Budget) []Fig6Row { return figure6(b, NewSystem) }

func figure6(b Budget, newSystem systemFunc) []Fig6Row {
	cfgs := wireless.AllConfigs()
	others := []string{"wcmesh", "optxb", "pclos", "cmesh"}
	rows := make([]Fig6Row, len(cfgs)+len(others))
	load := midLoad(256, wireless.Ideal)
	ParallelMap(1+len(others), func(i int) {
		if i == 0 {
			for j, res := range ownPerConfig(newSystem("own", 256, cfgs[0], wireless.Ideal), wireless.Ideal, load, b) {
				rows[j] = Fig6Row{Label: "own-" + cfgs[j].String(), Power: res.Power, Result: res}
			}
			return
		}
		name := others[i-1]
		res := newSystem(name, 256, wireless.Config4, wireless.Ideal).Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: load, Seed: b.Seed},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)
		rows[len(cfgs)+i-1] = Fig6Row{Label: name, Power: res.Power, Result: res}
	})
	return rows
}

// runEach builds sys once and runs points 0..n-1 on that one network, in
// order (Network.Run rewinds it in between): a row group of a figure costs
// its simulated cycles and one build, and reads what a fresh build per
// point reads.
func runEach(sys System, b Budget, n int, point func(j int) fabric.TrafficSpec) []fabric.Result {
	net := sys.Build(power.NewMeter(nil))
	out := make([]fabric.Result, n)
	for j := range out {
		ts := point(j)
		ts.Policy, ts.Classify = sys.Policy, sys.Classify
		out[j] = net.Run(ts, fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure})
	}
	return out
}

// loadSweep runs pattern on sys across the 256-core load axis, point j
// with seed b.Seed+j like Sweep, serially on one network (the figures are
// parallel across systems already).
func loadSweep(sys System, pattern traffic.Pattern, b Budget) ([]float64, []fabric.Result) {
	loads := SweepLoads(256, b.Loads)
	return loads, runEach(sys, b, len(loads), func(j int) fabric.TrafficSpec {
		return fabric.TrafficSpec{Pattern: pattern, Rate: loads[j], Seed: b.Seed + uint64(j)}
	})
}

// Fig7aRow is one bar group of Figure 7(a): saturation throughput per
// synthetic pattern per architecture at 256 cores.
type Fig7aRow struct {
	Pattern    traffic.Pattern
	SystemName string
	Throughput float64 // accepted flits/node/cycle at saturation
}

// Figure7a sweeps every paper pattern on every architecture.
func Figure7a(b Budget) []Fig7aRow { return figure7a(b, NewSystem) }

func figure7a(b Budget, newSystem systemFunc) []Fig7aRow {
	var rows []Fig7aRow
	for _, pat := range traffic.AllPaperPatterns() {
		for _, name := range SystemNames() {
			rows = append(rows, Fig7aRow{Pattern: pat, SystemName: name})
		}
	}
	ParallelMap(len(rows), func(i int) {
		_, results := loadSweep(newSystem(rows[i].SystemName, 256, wireless.Config4, wireless.Ideal), rows[i].Pattern, b)
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
// (uniform for 7b, bit reversal for 7c) at 256 cores.
func Figure7bc(pattern traffic.Pattern, b Budget) []Fig7bcSeries {
	return figure7bc(pattern, b, NewSystem)
}

func figure7bc(pattern traffic.Pattern, b Budget, newSystem systemFunc) []Fig7bcSeries {
	names := SystemNames()
	series := make([]Fig7bcSeries, len(names))
	ParallelMap(len(names), func(i int) {
		loads, results := loadSweep(newSystem(names[i], 256, wireless.Config4, wireless.Ideal), pattern, b)
		pts := make([]stats.CurvePoint, len(loads))
		for j, res := range results {
			pts[j] = stats.CurvePoint{Load: loads[j], Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: !res.Drained}
		}
		series[i] = Fig7bcSeries{
			SystemName:     names[i],
			Points:         pts,
			SaturationLoad: stats.SaturationLoad(pts, 3.0),
			CapacityLoad:   stats.CapacityLoad(pts, 0.92),
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

// Figure8 evaluates the 1024-core architectures on select patterns at a
// shared sub-saturation load: one network per architecture runs the three
// patterns, and the rows come out pattern-major as the figure prints them.
func Figure8(b Budget) []Fig8Row { return figure8(b, NewSystem) }

func figure8(b Budget, newSystem systemFunc) []Fig8Row {
	patterns := []traffic.Pattern{traffic.Uniform, traffic.BitReversal, traffic.Transpose}
	names := SystemNames()
	rows := make([]Fig8Row, len(patterns)*len(names))
	// Permutation patterns concentrate load; stay well below uniform
	// saturation.
	load := 0.3 * topology.UniformSaturationLoad(1024)
	ParallelMap(len(names), func(i int) {
		results := runEach(newSystem(names[i], 1024, wireless.Config4, wireless.Ideal), b, len(patterns), func(j int) fabric.TrafficSpec {
			return fabric.TrafficSpec{Pattern: patterns[j], Rate: load, Seed: b.Seed}
		})
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
