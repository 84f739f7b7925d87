package core

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestBitForBitDeterminism guards the reproducibility contract: identical
// seeds must produce identical summaries and identical energy ledgers,
// regardless of host parallelism. Sweep correctness and the EXPERIMENTS
// ledger both rest on this.
func TestBitForBitDeterminism(t *testing.T) {
	run := func() (fabric.Result, *power.Meter) {
		m := power.NewMeter(nil)
		n := BuildOWN256(Params{Meter: m})
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 77, Policy: OWNPolicy},
			fabric.RunSpec{Warmup: 500, Measure: 2500},
		)
		return res, m
	}
	a, ma := run()
	b, mb := run()
	if a.Summary != b.Summary {
		t.Fatalf("summaries diverged:\n  %v\n  %v", a.Summary, b.Summary)
	}
	if a.Power != b.Power {
		t.Fatalf("power diverged:\n  %v\n  %v", a.Power, b.Power)
	}
	if ma.NBufWrite != mb.NBufWrite || ma.NXbar != mb.NXbar || ma.NWirelessFlt != mb.NWirelessFlt {
		t.Fatal("event counts diverged")
	}
}

// TestSeedsChangeOutcome is the inverse guard: different seeds must not
// produce identical packet streams (which would indicate the seed is
// ignored somewhere).
func TestSeedsChangeOutcome(t *testing.T) {
	run := func(seed uint64) fabric.Result {
		n := BuildOWN256(Params{})
		return n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: seed, Policy: OWNPolicy},
			fabric.RunSpec{Warmup: 500, Measure: 2500},
		)
	}
	if run(1).Summary == run(2).Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

// TestParallelSweepMatchesSerial verifies the worker-pool sweep returns
// exactly what serial execution would (ParallelMap must not introduce
// cross-run state).
func TestParallelSweepMatchesSerial(t *testing.T) {
	loads := SweepLoads(256, 4)
	b := Budget{Warmup: 300, Measure: 1200, Loads: 4, Seed: 9}
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	par := Sweep(sys, traffic.Uniform, loads, b)
	var ser []float64
	for i, l := range loads {
		res := sys.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: l, Seed: b.Seed + uint64(i)},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)
		ser = append(ser, res.AvgLatency)
	}
	for i := range par {
		if par[i].Latency != ser[i] {
			t.Fatalf("point %d: parallel %v != serial %v", i, par[i].Latency, ser[i])
		}
	}
}
