package core

import (
	"os"
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

// A router whose every buffered flit is blocked sleeps until the credit
// or the busyUntil that unblocks it; the reference twin ticks it every
// cycle. Near and past saturation, where most router ticks would be such
// no-ops, the two must agree delivery for delivery on every system.
func TestConformanceStalledRoutersMatchPerCycle(t *testing.T) {
	scales := []int{256}
	if os.Getenv("CHECK_CAMPAIGN") != "" {
		scales = append(scales, 1024)
	}
	for _, cores := range scales {
		loads := SweepLoads(cores, 8)
		for _, name := range SystemNames() {
			sys := NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			for _, load := range []float64{loads[5], loads[7]} { // ~0.9x and 1.2x of saturation
				err := fabric.DiffRuns(func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
					fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: load, Seed: 18, Policy: sys.Policy, Classify: sys.Classify},
					fabric.RunSpec{Warmup: 300, Measure: 2500})
				if err != nil {
					t.Errorf("%s-%d at %.4f: %v", name, cores, load, err)
				}
			}
		}
	}
}

// The goldens cannot see a router that silently went back to re-walking
// its blocked VCs every cycle, so the schedule is pinned: compute-phase
// ticks (routers and sources) per switch traversal at saturation. With
// blocked routers spinning the ratios were 6.4 (CMESH) and 5.5 (OWN);
// they are 3.0 and 2.4 with them asleep.
func TestStalledRoutersSleepAtSaturation(t *testing.T) {
	for _, c := range []struct {
		name  string
		load  float64
		bound float64
	}{{"cmesh", 0.006, 4.0}, {"own", 0.007, 3.2}} {
		sys := NewSystem(c.name, 256, wireless.Config4, wireless.Ideal)
		m := power.NewMeter(nil)
		n := sys.Build(m)
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: c.load, Seed: 1, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 500, Measure: 5000},
		)
		if res.Packets == 0 {
			t.Fatalf("%s: run carried no traffic: %+v", c.name, res.Summary)
		}
		ticks := n.Eng.PhaseStats(sim.PhaseCompute).Ticks
		hops := m.NXbar
		if ratio := float64(ticks) / float64(hops); ratio >= c.bound {
			t.Errorf("%s-256 at %.3f: %.2f compute ticks per switch traversal (%d / %d), want < %.1f: blocked routers are spinning again",
				c.name, c.load, ratio, ticks, hops, c.bound)
		} else {
			t.Logf("%s-256 at %.3f: %.2f compute ticks per switch traversal", c.name, c.load, ratio)
		}
	}
}
