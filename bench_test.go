// Benchmarks regenerating every table and figure of the paper at reduced
// simulation budgets, plus ablations over the design knobs DESIGN.md
// calls out and microbenchmarks of the simulator's hot paths.
//
// Run: go test -bench=. -benchmem
package ownsim_test

import (
	"fmt"
	"testing"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/power"
	"ownsim/internal/rf"
	"ownsim/internal/sim"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// benchBudget keeps per-iteration simulation cost low; trends match the
// full budget used by cmd/paper.
func benchBudget() core.Budget {
	return core.Budget{Warmup: 200, Measure: 800, Loads: 3, Seed: 1}
}

func runSystem(b *testing.B, name string, cores int) fabric.Result {
	b.Helper()
	sys := core.NewSystem(name, cores, wireless.Config4, wireless.Ideal)
	return sys.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.4 * topology.UniformSaturationLoad(cores), Seed: 1},
		fabric.RunSpec{Warmup: 200, Measure: 800},
	)
}

// --- Tables ---

func BenchmarkTableIChannelAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		links := wireless.OWN256Links()
		if len(links) != 12 {
			b.Fatal("bad allocation")
		}
	}
}

func BenchmarkTableIIGroupAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		links := wireless.OWN1024Links()
		if len(links) != 16 {
			b.Fatal("bad allocation")
		}
	}
}

func BenchmarkTableIIIBandPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []wireless.Scenario{wireless.Ideal, wireless.Conservative} {
			if len(wireless.BandPlan(s)) != 16 {
				b.Fatal("bad plan")
			}
		}
	}
}

func BenchmarkTableIVConfigurationPlans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range wireless.AllConfigs() {
			_ = wireless.PlanOWN256(cfg, wireless.Ideal).MeanEPBpJ()
			_ = wireless.PlanOWN1024(cfg, wireless.Conservative).MeanEPBpJ()
		}
	}
}

// --- Figures ---

func BenchmarkFig3LinkBudget(b *testing.B) {
	lb := rf.DefaultLinkBudget()
	for i := 0; i < b.N; i++ {
		pts := rf.Figure3(lb, []rf.Decibels{0, 5, 10})
		if len(pts) != 30 {
			b.Fatal("bad sweep")
		}
	}
}

func BenchmarkFig4aOscillatorPSD(b *testing.B) {
	osc := rf.DefaultOscillator()
	for i := 0; i < b.N; i++ {
		pn := osc.MeasurePhaseNoise(1e6, uint64(i))
		if pn > -70 || pn < -110 {
			b.Fatalf("phase noise off: %v", pn)
		}
	}
}

func BenchmarkFig4bPACompression(b *testing.B) {
	pa := rf.DefaultPA()
	for i := 0; i < b.N; i++ {
		if p1 := pa.P1dBOutDBm(90); p1 < 4 || p1 > 6 {
			b.Fatalf("P1dB off: %v", p1)
		}
	}
}

func BenchmarkFig4cLNAGain(b *testing.B) {
	lna := rf.DefaultLNA()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for f := 70.0; f <= 110; f++ {
			sum += lna.GainAtDB(f)
		}
	}
	_ = sum
}

func BenchmarkFig5WirelessLinkPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
		res := sys.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: uint64(i)},
			fabric.RunSpec{Warmup: 200, Measure: 800},
		)
		if res.AvgWirelessChannelMW <= 0 {
			b.Fatal("no wireless power measured")
		}
	}
}

func BenchmarkFig6PowerBreakdown(b *testing.B) {
	for _, name := range core.SystemNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSystem(b, name, 256)
				if res.Power.TotalMW() <= 0 {
					b.Fatal("no power measured")
				}
			}
		})
	}
}

func BenchmarkFig7aSaturationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
		thr := core.SaturationThroughput(sys, traffic.Uniform, benchBudget())
		if thr <= 0 {
			b.Fatal("no throughput")
		}
	}
}

func BenchmarkFig7bcLatencyCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
		pts := core.Sweep(sys, traffic.Uniform, core.SweepLoads(256, 3), benchBudget())
		if len(pts) != 3 {
			b.Fatal("bad curve")
		}
	}
}

func BenchmarkFig8Kilocore(b *testing.B) {
	for _, name := range []string{"own", "optxb", "cmesh"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runSystem(b, name, 1024)
				if res.Power.TotalMW() <= 0 {
					b.Fatal("no power measured")
				}
			}
		})
	}
}

// --- Ablations (design knobs DESIGN.md calls out) ---

// BenchmarkAblationScenario compares the ideal (32 GHz) and conservative
// (16 GHz) outlooks end to end on OWN-256.
func BenchmarkAblationScenario(b *testing.B) {
	for _, scen := range []wireless.Scenario{wireless.Ideal, wireless.Conservative} {
		b.Run(scen.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem("own", 256, wireless.Config4, scen)
				res := sys.Run(
					fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.0015, Seed: 1},
					fabric.RunSpec{Warmup: 200, Measure: 800},
				)
				if !res.Drained {
					b.Fatal("should drain at this load")
				}
			}
		})
	}
}

// BenchmarkAblationPatterns exercises every synthetic pattern on OWN-256.
func BenchmarkAblationPatterns(b *testing.B) {
	for _, pat := range traffic.AllPaperPatterns() {
		b.Run(pat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
				res := sys.Run(
					fabric.TrafficSpec{Pattern: pat, Rate: 0.002, Seed: 1},
					fabric.RunSpec{Warmup: 200, Measure: 800},
				)
				if res.Packets == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}

// --- Simulator microbenchmarks ---

// simThroughput reports simulated cycles per wall-clock second for one
// loaded network; per iteration it builds and runs a 1000-cycle
// simulation.
func simThroughput(b *testing.B, name string, cores int, rate float64) {
	b.Helper()
	const cycles = 1000
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(name, cores, wireless.Config4, wireless.Ideal)
		sys.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 1},
			fabric.RunSpec{Warmup: 0, Measure: cycles, DrainBudget: 1},
		)
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

func BenchmarkSimOWN256(b *testing.B)   { simThroughput(b, "own", 256, 0.004) }
func BenchmarkSimCMESH256(b *testing.B) { simThroughput(b, "cmesh", 256, 0.004) }
func BenchmarkSimOWN1024(b *testing.B)  { simThroughput(b, "own", 1024, 0.001) }
func BenchmarkSimOptXB1024(b *testing.B) {
	simThroughput(b, "optxb", 1024, 0.001)
}

// --- Active-set scheduler and pooling benchmarks (PR 7) ---
//
// BenchmarkUniform256/1024 are the headline hot-path numbers: one full
// build+run at fixed seed and a 1-cycle drain budget, allocation-tracked.
// BENCH_BASELINE.txt records the checked-in reference; make bench-compare
// gates allocs/op (deterministic) and reports ns/op (informational).

func benchUniform(b *testing.B, cores int, rate float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Construction (routers, wires, channels) is excluded: the
		// benchmark measures the simulation hot path, which is where the
		// active-set scheduler and packet pooling live.
		b.StopTimer()
		sys := core.NewSystem("own", cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		b.StartTimer()
		n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 1, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 200, Measure: 10000, DrainBudget: 1},
		)
	}
}

func BenchmarkUniform256(b *testing.B)  { benchUniform(b, 256, 0.004) }
func BenchmarkUniform1024(b *testing.B) { benchUniform(b, 1024, 0.001) }

type nopFlitSink struct{}

func (nopFlitSink) ReceiveFlit(int, *noc.Flit) {}

type nopCreditSink struct{}

func (nopCreditSink) ReceiveCredit(int, int) {}

// BenchmarkEngineStepIdle measures one engine step over 4096 registered
// but traffic-less wires — the steady-state cost of components that have
// nothing to do. Under the active-set scheduler they all sleep after the
// first cycle, so a step is a few bitmap-word checks instead of 4096
// virtual calls.
func BenchmarkEngineStepIdle(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	for i := 0; i < 4096; i++ {
		w := noc.NewWire(nopCreditSink{}, 0, nopFlitSink{}, 0, 1, 1)
		w.SetWaker(e.RegisterWakeable(sim.PhaseDelivery, w))
	}
	e.Step() // first cycle: every wire ticks once and goes to sleep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkFlitPool measures one packet lifetime — Get, materialize a
// 5-flit sequence, Recycle — which must be allocation-free in steady
// state (the freshly-allocating equivalent costs 7 allocs).
func BenchmarkFlitPool(b *testing.B) {
	b.ReportAllocs()
	var pl noc.Pool
	for i := 0; i < b.N; i++ {
		p := pl.Get()
		p.NumFlits = 5
		fl := noc.FlitsOf(p)
		if len(fl) != 5 {
			b.Fatal("bad flit count")
		}
		noc.Recycle(p)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := sim.NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	_ = x
}

func BenchmarkPhotonicInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if photonic.SWMRInventory(1024).Modulators != 7168 {
			b.Fatal("bad inventory")
		}
	}
}

// BenchmarkAblationBufferDepth sweeps the per-VC input buffer depth on
// OWN-256: deeper buffers absorb wormhole gaps and raise saturation
// throughput at the cost of leakage.
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := core.BuildOWN256(core.Params{BufDepth: depth, Meter: power.NewMeter(nil)})
				res := n.Run(
					fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 1, Policy: core.OWNPolicy},
					fabric.RunSpec{Warmup: 200, Measure: 800},
				)
				if res.Packets == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}

// BenchmarkAblationFailover measures the throughput cost of dead wireless
// channels with relay routing.
func BenchmarkAblationFailover(b *testing.B) {
	for _, failed := range [][]int{nil, {0}, {0, 1, 2, 3}} {
		b.Run(fmt.Sprintf("dead%d", len(failed)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := core.BuildOWN256(core.Params{FailedChannels: failed})
				res := n.Run(
					fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.003, Seed: 1, Policy: core.OWNPolicy},
					fabric.RunSpec{Warmup: 200, Measure: 800},
				)
				if res.Packets == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}
