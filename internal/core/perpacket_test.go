package core

import (
	"fmt"
	"runtime"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

var classSink int

// OWN-1024's classifier runs for every generated packet, so looking up
// the group link it classes by allocates nothing.
func TestClassify1024AllocatesNothing(t *testing.T) {
	src, dst := 5, 3*CoresPerGroup+7 // group 0 -> group 3
	if got := Classify1024(src, dst); got != ClassVertical {
		t.Fatalf("Classify1024(%d, %d) = %d, want ClassVertical", src, dst, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { classSink = Classify1024(src, dst) }); allocs != 0 {
		t.Errorf("Classify1024 of an inter-group pair allocates %v times, want 0", allocs)
	}
}

// A run allocates for its generators, its collector and the latency
// counts' growth, and nothing per packet. Two checks per system.
//
// A fresh build's first run (warmup 200, measure 10 000, drain budget 1,
// seed 1; the build not counted) makes at most firstRun allocations.
// Measured: OWN-256 2 792 and OWN-1024 8 745 on amd64, also under -race
// (two runs of one tree can differ by one), and 2 699 and 8 714 under
// GOARCH=386. Each ceiling is the amd64 count plus a 1 % margin, so one
// more allocation per source per run (+256, +1 024) fails it.
//
// On the rewound network, eight times the measured cycles carry eight
// times the packets for at most slack more allocations. The growth is
// the sources' packet pools, which start each run empty and grow to
// their in-flight high-water mark (four allocations per packet held), a
// mark the longer run lifts on more sources: measured 625 (OWN-256) and
// 1 879 (OWN-1024). One allocation per packet would add ≈ 5 800.
func TestRunAllocationsDoNotGrowWithPackets(t *testing.T) {
	const shortCy, longCy = 4000, 32000
	for _, tc := range []struct {
		cores           int
		rate            float64
		firstRun, slack uint64
	}{
		{256, 0.004, 2_820, 1_200},
		{1024, 0.001, 8_830, 3_000},
	} {
		t.Run(fmt.Sprintf("OWN-%d", tc.cores), func(t *testing.T) {
			sys := NewSystem("own", tc.cores, wireless.Config4, wireless.Ideal)
			n := sys.Build(power.NewMeter(nil))
			ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: tc.rate, Seed: 1, Policy: sys.Policy, Classify: sys.Classify}
			run := func(rs fabric.RunSpec) (allocs uint64, res fabric.Result) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res = n.Run(ts, rs)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, res
			}
			first, _ := run(fabric.RunSpec{Warmup: 200, Measure: 10_000, DrainBudget: 1})
			t.Logf("fresh build's first run: %d allocations (ceiling %d)", first, tc.firstRun)
			if first > tc.firstRun {
				t.Errorf("a fresh build's first run allocates %d times, want at most %d", first, tc.firstRun)
			}

			ts.Seed = 5
			measure := func(cy uint64) (allocs, packets uint64) {
				allocs, res := run(fabric.RunSpec{Warmup: 500, Measure: cy})
				if !res.Drained {
					t.Fatalf("%d-cycle run did not drain", cy)
				}
				return allocs, res.Packets
			}
			measure(longCy) // rings, queues and maps reach their working size
			short, shortPkts := measure(shortCy)
			long, longPkts := measure(longCy)
			t.Logf("%d cycles: %d allocations for %d packets; %d cycles: %d for %d", shortCy, short, shortPkts, longCy, long, longPkts)
			if longPkts < 6*shortPkts {
				t.Fatalf("the long run carried %d packets against %d: it measures nothing", longPkts, shortPkts)
			}
			if long > short+tc.slack {
				t.Errorf("%d measured cycles allocate %d times, %d cycles %d: %d more for %d more packets, want at most %d more",
					longCy, long, shortCy, short, long-short, longPkts-shortPkts, tc.slack)
			}
		})
	}
}
