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

// Fig7aRow is one bar group of Figure 7(a): saturation throughput per
// synthetic pattern per architecture at 256 cores.
type Fig7aRow struct {
	Pattern    traffic.Pattern
	SystemName string
	Throughput float64 // accepted flits/node/cycle at saturation
}

// Figure7a sweeps every paper pattern on every architecture.
func Figure7a(b Budget) []Fig7aRow {
	patterns := traffic.AllPaperPatterns()
	names := SystemNames()
	rows := make([]Fig7aRow, 0, len(patterns)*len(names))
	for _, pat := range patterns {
		for _, name := range names {
			rows = append(rows, Fig7aRow{Pattern: pat, SystemName: name})
		}
	}
	ParallelMap(len(rows), func(i int) {
		sys := NewSystem(rows[i].SystemName, 256, wireless.Config4, wireless.Ideal)
		// Serialize the inner sweep (we are already parallel here).
		loads := SweepLoads(256, b.Loads)
		var best float64
		for j, l := range loads {
			res := sys.Run(
				fabric.TrafficSpec{Pattern: rows[i].Pattern, Rate: l, Seed: b.Seed + uint64(j)},
				fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
			)
			if res.Throughput > best {
				best = res.Throughput
			}
		}
		rows[i].Throughput = best
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
	names := SystemNames()
	series := make([]Fig7bcSeries, len(names))
	ParallelMap(len(names), func(i int) {
		sys := NewSystem(names[i], 256, wireless.Config4, wireless.Ideal)
		pts := make([]stats.CurvePoint, 0, b.Loads)
		for j, l := range SweepLoads(256, b.Loads) {
			res := sys.Run(
				fabric.TrafficSpec{Pattern: pattern, Rate: l, Seed: b.Seed + uint64(j)},
				fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
			)
			pts = append(pts, stats.CurvePoint{
				Load: l, Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: !res.Drained,
			})
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
// shared sub-saturation load.
func Figure8(b Budget) []Fig8Row {
	patterns := []traffic.Pattern{traffic.Uniform, traffic.BitReversal, traffic.Transpose}
	names := SystemNames()
	rows := make([]Fig8Row, 0, len(patterns)*len(names))
	for _, pat := range patterns {
		for _, name := range names {
			rows = append(rows, Fig8Row{SystemName: name, Pattern: pat})
		}
	}
	// Permutation patterns concentrate load; stay well below uniform
	// saturation.
	load := 0.3 * topology.UniformSaturationLoad(1024)
	ParallelMap(len(rows), func(i int) {
		sys := NewSystem(rows[i].SystemName, 1024, wireless.Config4, wireless.Ideal)
		res := sys.Run(
			fabric.TrafficSpec{Pattern: rows[i].Pattern, Rate: load, Seed: b.Seed},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)
		rows[i].Throughput = res.Throughput
		rows[i].EnergyPerPacketPJ = EnergyPerPacketPJ(res, 1024)
		rows[i].Power = res.Power
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
