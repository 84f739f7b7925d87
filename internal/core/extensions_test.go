package core

import (
	"fmt"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestReconfigChannelsRaiseDiagonalCapacity exercises the Table III
// reserve channels (links 13-16): bonding them onto the C2C links doubles
// the diagonal wireless rate, which lifts throughput for traffic that
// concentrates on diagonal cluster pairs. Transpose does exactly that:
// cluster 1's cores (top-right quadrant rows) exchange heavily with
// cluster 3 across the diagonal.
//
// Below the un-bonded diagonal capacity both builds carry every packet, so
// their throughputs differ only by which flits the window's edges cut
// (either way, seed by seed); not hurting is read off the latency, which
// the faster diagonal channels lower. Past that capacity the plain build
// saturates and the bonded one must deliver measurably more.
func TestReconfigChannelsRaiseDiagonalCapacity(t *testing.T) {
	run := func(reconfig bool, load float64) fabric.Result {
		n := BuildOWN256(Params{Reconfig: reconfig})
		return n.Run(
			fabric.TrafficSpec{Pattern: traffic.Transpose, Rate: load, Seed: 13, Policy: OWNPolicy},
			fabric.RunSpec{Warmup: 1000, Measure: 5000},
		)
	}
	base, boosted := run(false, 0.006), run(true, 0.006)
	if base.Saturated() || !boosted.Drained || boosted.AvgLatency > base.AvgLatency {
		t.Fatalf("reconfiguration channels should not hurt below capacity: base %.1f cycles (saturated=%v), reconfig %.1f cycles (drained=%v)",
			base.AvgLatency, base.Saturated(), boosted.AvgLatency, boosted.Drained)
	}
	base, boosted = run(false, 0.010), run(true, 0.010)
	if !base.Saturated() || boosted.Throughput < base.Throughput*1.05 {
		t.Fatalf("expected >=5%% gain at saturating transpose load: base %v (saturated=%v), reconfig %v",
			base.Throughput, base.Saturated(), boosted.Throughput)
	}
}

// TestReconfigBondsReserveRate pins the bonded rate: each C2C channel
// serializes at its band's rate plus its reserve band's (Table III links
// 13-16), and every other channel is the plain build's. The capacity
// test above only asks for a gain, which a wrong rate also gives.
func TestReconfigBondsReserveRate(t *testing.T) {
	p := Params{}
	p.fill()
	reserve := wireless.BandPlan(p.Scenario)[wireless.NumBands-4:]
	want := map[string]int{}
	for _, ch := range wireless.PlanOWN256(p.Config, p.Scenario).Channels {
		if l := ch.Link; l.Class == wireless.C2C {
			want[fmt.Sprintf("wl-%s-%s", l.TxAntenna, l.RxAntenna)] = topology.WirelessCyPerFlit(ch.Band.BWGbps + reserve[l.ID%4].BWGbps)
		}
	}
	plain, bonded := BuildOWN256(Params{}), BuildOWN256(Params{Reconfig: true})
	if len(bonded.Channels) != len(plain.Channels) {
		t.Fatalf("reconfig build has %d channels, plain %d", len(bonded.Channels), len(plain.Channels))
	}
	c2c := 0
	for i, ch := range bonded.Channels {
		base := plain.Channels[i]
		if ch.Name != base.Name {
			t.Fatalf("channel %d is %s, plain build's is %s", i, ch.Name, base.Name)
		}
		cy, ok := want[ch.Name]
		if ok {
			c2c++
		} else {
			cy = base.SerializeCy
		}
		if ch.SerializeCy != cy {
			t.Errorf("%s (%s): %d cycles per flit, want %d", ch.Name, ch.Class, ch.SerializeCy, cy)
		}
	}
	if c2c != len(want) || c2c == 0 {
		t.Errorf("found %d of the plan's %d C2C channels", c2c, len(want))
	}
}

func TestReconfigOnlyChangesC2C(t *testing.T) {
	// Uniform traffic at low load: energy/packet shifts only through
	// the C2C EPB averaging; the network must still drain and obey the
	// hop bound.
	n := BuildOWN256(Params{Reconfig: true, Meter: power.NewMeter(nil)})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.003, Seed: 14, Policy: OWNPolicy},
		fabric.RunSpec{Warmup: 500, Measure: 3000},
	)
	if !res.Drained || res.MaxHops > 4 {
		t.Fatalf("reconfig build broken: drained=%v hops=%d", res.Drained, res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadTraces runs the future-work trace-driven path end to end on
// OWN-256: a 5-point stencil and a recursive-doubling all-reduce must
// complete with every packet delivered.
func TestWorkloadTraces(t *testing.T) {
	cases := []struct {
		name  string
		trace *traffic.Trace
	}{
		{"stencil", traffic.StencilTrace(256, 4, 400, 3)},
		{"allreduce", traffic.AllReduceTrace(256, 0, 300)},
	}
	for _, tc := range cases {
		n := BuildOWN256(Params{Meter: power.NewMeter(nil)})
		res := n.RunTrace(tc.trace, 5, fabric.TrafficSpec{Policy: OWNPolicy}, 60000)
		if !res.Drained {
			t.Fatalf("%s: trace did not complete", tc.name)
		}
		if res.Packets != uint64(len(tc.trace.Entries)) {
			t.Fatalf("%s: delivered %d packets, trace has %d", tc.name, res.Packets, len(tc.trace.Entries))
		}
		if res.MaxHops > 4 {
			t.Fatalf("%s: hop bound violated: %d", tc.name, res.MaxHops)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestWorkloadTraceOnCMesh cross-checks trace replay on a baseline.
func TestWorkloadTraceOnCMesh(t *testing.T) {
	tr := traffic.StencilTrace(256, 2, 500, 4)
	sys := NewSystem("cmesh", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	res := n.RunTrace(tr, 5, fabric.TrafficSpec{}, 60000)
	if !res.Drained {
		t.Fatal("stencil trace did not complete on CMESH")
	}
	if res.Packets != uint64(len(tr.Entries)) {
		t.Fatalf("delivered %d of %d", res.Packets, len(tr.Entries))
	}
}
