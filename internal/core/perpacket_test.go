package core

import (
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

// A rewound network's run allocates for its generators, its collector and
// the latency counts' growth, and nothing per packet: four times the
// measured cycles carry four times the packets for at most runSlack more
// allocations. Most of the slack is the sources' packet pools, which start
// each run empty and grow to their in-flight high-water mark (four
// allocations per packet held), a mark the longer run lifts on more
// sources (≈ 400 here). One allocation per packet would add ≈ 2 500.
func TestRunAllocationsDoNotGrowWithPackets(t *testing.T) {
	const shortCy, longCy, runSlack = 4000, 16000, 800
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 5, Policy: sys.Policy, Classify: sys.Classify}
	run := func(measure uint64) (allocs, packets uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := n.Run(ts, fabric.RunSpec{Warmup: 500, Measure: measure})
		runtime.ReadMemStats(&after)
		if !res.Drained {
			t.Fatalf("%d-cycle run did not drain", measure)
		}
		return after.Mallocs - before.Mallocs, res.Packets
	}
	run(longCy) // rings, queues and maps reach their working size
	short, shortPkts := run(shortCy)
	long, longPkts := run(longCy)
	t.Logf("%d cycles: %d allocations for %d packets; %d cycles: %d for %d", shortCy, short, shortPkts, longCy, long, longPkts)
	if longPkts < 3*shortPkts {
		t.Fatalf("the long run carried %d packets against %d: it measures nothing", longPkts, shortPkts)
	}
	if long > short+runSlack {
		t.Errorf("%d measured cycles allocate %d times, %d cycles %d: %d more for %d more packets, want at most %d more",
			longCy, long, shortCy, short, long-short, longPkts-shortPkts, runSlack)
	}
}
