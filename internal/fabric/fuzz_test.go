package fabric_test

import (
	"testing"
	"testing/quick"

	"ownsim/internal/fabric"
	"ownsim/internal/fuzznet"
	"ownsim/internal/traffic"
)

// TestFuzzRandomNetworksDeliver drives random topologies with uniform
// traffic and verifies full delivery, credit invariants, and clean
// buffers after drain. The quick.Config RNG is deliberately left
// unpinned: up*/down* routing makes every draw deadlock-free, so any
// seed must deliver every packet. The generator lives in package fuzznet
// (RandomUpDownNetwork), which the conformance campaign draws from too.
//
// Delivery is checked on a trace replay of the Bernoulli workload
// (fuzznet.UniformTrace), which runs until every packet has ejected. A Run would
// not do: on a 3-core network a window holds a few dozen packets, so the
// few still in flight at its edge can read "saturated", and a saturated
// run is not drained.
func TestFuzzRandomNetworksDeliver(t *testing.T) {
	const rate, pktFlits, window = 0.02, 3, 1600
	f := func(seed uint64) bool {
		nRouters := int(seed%6) + 3 // 3..8 routers
		n := fuzznet.RandomUpDownNetwork(seed, nRouters)
		tr := fuzznet.UniformTrace(n.NumCores, rate, pktFlits, seed, window)
		res := n.RunTrace(tr, pktFlits, fabric.TrafficSpec{}, 5*window)
		if !res.Drained || n.BufferedFlits() != 0 {
			t.Logf("seed %d: %d of %d packets delivered, %d flits buffered", seed, res.Packets, len(tr.Entries), n.BufferedFlits())
			return false
		}
		if err := n.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzDeadlockRegression replays the seeds that wedged the previous
// directed-BFS generator (cyclic channel dependencies through the
// chords; 32 flits stuck under any drain budget). With up*/down* routing
// both must drain.
func TestFuzzDeadlockRegression(t *testing.T) {
	for _, seed := range []uint64{0xe9b30f4f20eba9f5, 0x6e69c6b7302b904d} {
		nRouters := int(seed%6) + 3
		n := fuzznet.RandomUpDownNetwork(seed, nRouters)
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, PktFlits: 3, Seed: seed},
			fabric.RunSpec{Warmup: 100, Measure: 1500},
		)
		if !res.Drained {
			t.Errorf("seed %#x: failed to drain (%d flits buffered)", seed, n.BufferedFlits())
		}
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
}
