package check_test

import (
	"math"
	"testing"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestConformanceEnabledHooksAllocFree pins the enabled path's bargain
// from the checker's side: on an OWN-256 network with the checker and span
// tracking installed, once the checker's ledger, the span slab and their
// ID tables have grown to the run's live packet count, the observers
// allocate nothing per further 1 000 cycles. The monitors' FIFO slots are
// sized at install, so no event grows them. The metric sampler stays off:
// its rows allocate by design.
//
// The simulator's own per-source packet pools still reach new high-water
// marks now and then (a few allocations per 10 000 cycles at 80 000
// cycles), so the observers' share is what an identical bare network,
// stepped in lockstep on the same seed, does not allocate.
func TestConformanceEnabledHooksAllocFree(t *testing.T) {
	sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	build := func() *fabric.Network {
		n := sys.Build(power.NewMeter(nil))
		gens := traffic.NewBernoullis(n.NumCores, traffic.Uniform, 0.5*topology.UniformSaturationLoad(256), 5, nil, 1, sys.Classify)
		for id, src := range n.Sources {
			gens[id].MeasureTo = math.MaxUint64 // every packet is measured, so spans follow it
			src.SetGenerator(&gens[id])
			src.Policy = sys.Policy
		}
		return n
	}
	bare, observed := build(), build()
	pb := probe.New(probe.Options{Spans: true})
	observed.InstallProbe(pb)
	c := check.New()
	observed.InstallChecker(c, nil)

	bare.Eng.Run(20000)
	observed.Eng.Run(20000)
	var bareAllocs, observedAllocs float64
	for i := 0; i < 10; i++ {
		bareAllocs += testing.AllocsPerRun(1, func() { bare.Eng.Run(1000) })
		observedAllocs += testing.AllocsPerRun(1, func() { observed.Eng.Run(1000) })
	}
	if observedAllocs != bareAllocs {
		t.Errorf("observers allocate %v times in 10 warm windows of 1 000 cycles (observed %v, bare %v), want 0",
			observedAllocs-bareAllocs, observedAllocs, bareAllocs)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Events() == 0 || c.LiveStates() == 0 || pb.Spans().Packets() == 0 {
		t.Fatalf("observers idle: %d events, %d live ledgers, %d spans closed",
			c.Events(), c.LiveStates(), pb.Spans().Packets())
	}
}
