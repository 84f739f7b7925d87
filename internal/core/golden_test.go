package core

import (
	"math"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// The golden values below were captured from the pre-active-set,
// pre-pooling engine (commit acce07f), which visited every component
// every cycle and allocated each packet and flit fresh. The active-set
// scheduler and the packet pool are pure performance work: they must
// reproduce these runs bit for bit, floats included. Any diff here means
// a scheduling or lifetime change leaked into simulation semantics.
//
// One re-baseline, on purpose (PR 21): power became count × constant
// instead of one float addition per event, which moves the dynamic-power
// floats in their last digits. The literals in `want` are what the pricing
// read computes; the engine's originals are kept in `was` and every power
// float is held to them within 1e-12 relative (checkGolden). Summary,
// Drained, Cycles and RouterStaticMW did not move and are compared
// exactly against both.

func goldenRun(t *testing.T, cores int, rate float64) fabric.Result {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	res := sys.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	return res
}

// checkGolden compares res exactly against want, and want's power floats
// against the pre-PR-21 accumulator literals within 1e-12 relative.
func checkGolden(t *testing.T, res, want fabric.Result, was power.Breakdown, wasAvgMW float64) {
	t.Helper()
	if res != want {
		t.Fatalf("fixed-seed result diverged from golden:\n got %+v %+v avg %v\nwant %+v %+v avg %v",
			res, res.Power, res.AvgWirelessChannelMW, want, want.Power, want.AvgWirelessChannelMW)
	}
	if want.Power.Cycles != was.Cycles || want.Power.RouterStaticMW != was.RouterStaticMW {
		t.Fatalf("cycles or static power moved: %+v, was %+v", want.Power, was)
	}
	for _, f := range []struct {
		name     string
		now, old float64
	}{
		{"RouterDynMW", float64(want.Power.RouterDynMW), float64(was.RouterDynMW)},
		{"ElecLinkMW", float64(want.Power.ElecLinkMW), float64(was.ElecLinkMW)},
		{"PhotonicMW", float64(want.Power.PhotonicMW), float64(was.PhotonicMW)},
		{"WirelessMW", float64(want.Power.WirelessMW), float64(was.WirelessMW)},
		{"AvgWirelessChannelMW", want.AvgWirelessChannelMW, wasAvgMW},
	} {
		if math.Abs(f.now-f.old) > 1e-12*math.Abs(f.old) {
			t.Errorf("%s = %v, more than 1e-12 relative from the accumulator engine's %v", f.name, f.now, f.old)
		}
	}
}

func TestGoldenOWN256MatchesPrePoolEngine(t *testing.T) {
	res := goldenRun(t, 256, 0.004)
	want := fabric.Result{
		Summary: stats.Summary{
			Packets:       525,
			AvgLatency:    74.19809523809523,
			AvgNetLatency: 74.18857142857142,
			P50Latency:    71,
			P95Latency:    151,
			P99Exact:      188,
			PctSamples:    525,
			P99Latency:    256,
			MaxLatency:    257,
			AvgHops:       3.422857142857143,
			MaxHops:       4,
			Throughput:    0.004046875,
			Offered:       0.0041015625,
		},
		Drained: true,
		Power: power.Breakdown{
			RouterDynMW:    32.39497816593886,
			RouterStaticMW: 48.367999999999434,
			ElecLinkMW:     0,
			PhotonicMW:     630.0187149095447,
			WirelessMW:     20.69088459139114,
			Cycles:         3206,
		},
		AvgWirelessChannelMW: 1.7242403826159283,
	}
	checkGolden(t, res, want, power.Breakdown{
		RouterDynMW:    32.394978165937324,
		RouterStaticMW: 48.367999999999434,
		ElecLinkMW:     0,
		PhotonicMW:     630.0187149095447,
		WirelessMW:     20.690884591390812,
		Cycles:         3206,
	}, 1.7242403826159267)
}

func TestGoldenOWN1024MatchesPrePoolEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core golden run in -short mode")
	}
	res := goldenRun(t, 1024, 0.001)
	want := fabric.Result{
		Summary: stats.Summary{
			Packets:       549,
			AvgLatency:    109.70127504553734,
			AvgNetLatency: 109.70127504553734,
			P50Latency:    88,
			P95Latency:    234,
			P99Exact:      379,
			PctSamples:    549,
			P99Latency:    512,
			MaxLatency:    559,
			AvgHops:       3.80327868852459,
			MaxHops:       4,
			Throughput:    0.001044921875,
			Offered:       0.001072265625,
		},
		Drained: true,
		Power: power.Breakdown{
			RouterDynMW:    37.87378483667965,
			RouterStaticMW: 194.81600000000992,
			ElecLinkMW:     0,
			PhotonicMW:     736.4698831285585,
			WirelessMW:     105.70701827989213,
			Cycles:         3337,
		},
		AvgWirelessChannelMW: 4.259190890020977,
	}
	checkGolden(t, res, want, power.Breakdown{
		RouterDynMW:    37.873784836678425,
		RouterStaticMW: 194.81600000000992,
		ElecLinkMW:     0,
		PhotonicMW:     736.4698831285585,
		WirelessMW:     105.70701827989814,
		Cycles:         3337,
	}, 4.259190890020976)
}
