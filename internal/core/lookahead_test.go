package core

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// At kilo-core low load nearly every source is idle on nearly every
// cycle, and an idle Bernoulli source sleeps until its next packet. The
// goldens cannot see a source that silently went back to polling (the
// results are bit-identical either way), so the schedule itself is
// pinned: mean compute-phase occupancy was 1027 with always-on sources.
func TestIdleSourcesSleepAtKiloCoreLowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core run in -short mode")
	}
	sys := NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 77, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	if !res.Drained || res.Packets == 0 {
		t.Fatalf("run did not carry traffic: %+v", res.Summary)
	}
	st := n.Eng.PhaseStats(sim.PhaseCompute)
	if mean := float64(st.AwakeCycleSum) / float64(n.Eng.Cycle()); mean >= 32 {
		t.Fatalf("mean awake compute components %.1f, want < 32: sources are polling again", mean)
	}
	if st.WakesTimer < res.Packets {
		t.Fatalf("%d timer wakes for %d measured packets: sources are not waking on their look-ahead", st.WakesTimer, res.Packets)
	}
}

// The reference twin polls every generator once per cycle (it never
// calls NextPending); the optimised side looks ahead. At a load where
// sources are idle almost always, and with the size draw following the
// destination draw, the two must still agree delivery for delivery.
func TestConformanceLookAheadMatchesPolling(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	rr := traffic.RequestReply()
	for _, seed := range []uint64{3, 2018} {
		err := fabric.DiffRuns(func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: seed, Sizes: &rr, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 300, Measure: 2500})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
