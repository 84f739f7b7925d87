package core

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// The golden values below pin two fixed-seed runs bit for bit, floats
// included. They were first captured from the pre-active-set, pre-pooling
// engine (commit acce07f), which visited every component every cycle and
// allocated each packet and flit fresh; the active-set scheduler, the
// packet pool, the wheels and every other performance change since had
// to reproduce them exactly. Any diff here means a scheduling or lifetime
// change leaked into simulation semantics.
//
// Two re-baselines, on purpose. PR 21: power became count × constant
// instead of one float addition per event, which moved the dynamic-power
// floats in their last digits. PR 42: arrivals are drawn per packet, a gap
// at a time, instead of by a coin per cycle. That is the same Bernoulli
// process but another sample path, so every field moved; DESIGN.md §4
// has the two-sample gate that shows the traffic did not change.

func goldenRun(t *testing.T, cores int, rate float64) fabric.Result {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	res := sys.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	return res
}

// checkGolden compares res exactly against want.
func checkGolden(t *testing.T, res, want fabric.Result) {
	t.Helper()
	if res != want {
		t.Fatalf("fixed-seed result diverged from golden:\n got %+v %+v avg %v\nwant %+v %+v avg %v",
			res, res.Power, res.AvgWirelessChannelMW, want, want.Power, want.AvgWirelessChannelMW)
	}
}

func TestGoldenOWN256MatchesPrePoolEngine(t *testing.T) {
	res := goldenRun(t, 256, 0.004)
	checkGolden(t, res, fabric.Result{
		Summary: stats.Summary{
			Packets:       537,
			AvgLatency:    73.4562383612663,
			AvgNetLatency: 73.44320297951583,
			P50Latency:    69,
			P95Latency:    153,
			P99Latency:    195,
			MaxLatency:    247,
			AvgHops:       3.3798882681564244,
			MaxHops:       4,
			Throughput:    0.0041484375,
			Offered:       0.0041953125,
		},
		Drained: true,
		Power: power.Breakdown{
			RouterDynMW:    33.38661209068011,
			RouterStaticMW: 48.367999999999434,
			ElecLinkMW:     0,
			PhotonicMW:     650.3576826196473,
			WirelessMW:     22.38988413098237,
			Cycles:         3176,
		},
		AvgWirelessChannelMW: 1.8658236775818642,
	})
}

func TestGoldenOWN1024MatchesPrePoolEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core golden run in -short mode")
	}
	res := goldenRun(t, 1024, 0.001)
	checkGolden(t, res, fabric.Result{
		Summary: stats.Summary{
			Packets:       541,
			AvgLatency:    106.4380776340111,
			AvgNetLatency: 106.43068391866913,
			P50Latency:    87,
			P95Latency:    207,
			P99Latency:    426,
			MaxLatency:    603,
			AvgHops:       3.7301293900184844,
			MaxHops:       4,
			Throughput:    0.001029296875,
			Offered:       0.001056640625,
		},
		Drained: true,
		Power: power.Breakdown{
			RouterDynMW:    36.83827956989247,
			RouterStaticMW: 194.81600000000992,
			ElecLinkMW:     0,
			PhotonicMW:     713.1081593927894,
			WirelessMW:     108.5671954459203,
			Cycles:         3162,
		},
		AvgWirelessChannelMW: 4.507650853889943,
	})
}
