package topology

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
)

func TestOptXBStructure(t *testing.T) {
	n := BuildOptXB(Params{Cores: 256})
	if len(n.Routers) != 64 {
		t.Fatalf("routers = %d, want 64", len(n.Routers))
	}
	// Paper-convention radix 67 (63 write + 4 cores); plus our explicit
	// read port makes 68 simulated ports.
	if n.Routers[0].Cfg.NumPorts != 68 {
		t.Fatalf("ports = %d, want 68", n.Routers[0].Cfg.NumPorts)
	}
	if n.Diameter != 2 {
		t.Fatalf("diameter = %d, want 2", n.Diameter)
	}
}

func TestOptXBDelivers(t *testing.T) {
	n := BuildOptXB(Params{Cores: 256, Meter: power.NewMeter(nil)})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 21},
		fabric.RunSpec{Warmup: 2000, Measure: 4000},
	)
	if !res.Drained {
		t.Fatal("failed to drain at half capacity")
	}
	if res.MaxHops > 2 {
		t.Fatalf("MaxHops = %d, want <= 2 (single-hop crossbar)", res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Power.PhotonicMW <= 0 {
		t.Fatal("photonic energy not charged")
	}
	if res.Power.WirelessMW != 0 || res.Power.ElecLinkMW != 0 {
		t.Fatal("OptXB must be photonic-only")
	}
}

func TestOptXBTokenLatencyVisible(t *testing.T) {
	// Token circulation on a 63-writer ring plus 32-cycle serialization
	// makes OptXB's zero-load latency clearly higher than a wire-fast
	// network's; check it lands in the expected window.
	n := BuildOptXB(Params{Cores: 256})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 23},
		fabric.RunSpec{Warmup: 2000, Measure: 4000},
	)
	if res.AvgLatency < 100 || res.AvgLatency > 400 {
		t.Fatalf("OptXB zero-load latency %v, want in [100, 400]", res.AvgLatency)
	}
}

func TestPClosStructure(t *testing.T) {
	n := BuildPClos(Params{Cores: 256})
	// Unfolded 3-stage Clos: 8 ingress + 8 middle + 8 egress switches.
	if len(n.Routers) != 24 {
		t.Fatalf("switches = %d, want 24", len(n.Routers))
	}
	if n.Routers[0].Cfg.NumPorts != 40 {
		t.Fatalf("ingress radix = %d, want 40", n.Routers[0].Cfg.NumPorts)
	}
	if n.Diameter != 3 {
		t.Fatalf("diameter = %d, want 3", n.Diameter)
	}
}

func TestPClosDelivers(t *testing.T) {
	n := BuildPClos(Params{Cores: 256, Meter: power.NewMeter(nil)})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 25},
		fabric.RunSpec{Warmup: 1000, Measure: 3000},
	)
	if !res.Drained {
		t.Fatal("failed to drain")
	}
	if res.MaxHops != 3 {
		t.Fatalf("MaxHops = %d, want exactly 3 (every packet crosses all stages)", res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Power.PhotonicMW <= 0 {
		t.Fatal("photonic inter-switch links not charged")
	}
	if res.Power.WirelessMW != 0 {
		t.Fatal("p-Clos has no wireless")
	}
}

func TestWCMeshStructure(t *testing.T) {
	n := BuildWCMesh(Params{Cores: 256})
	if len(n.Routers) != 64 {
		t.Fatalf("routers = %d, want 64", len(n.Routers))
	}
	w, e := 0, 0
	for _, r := range n.Routers {
		switch r.Cfg.NumPorts {
		case 11:
			w++
		case 7:
			e++
		default:
			t.Fatalf("unexpected radix %d", r.Cfg.NumPorts)
		}
	}
	if w != 16 || e != 48 {
		t.Fatalf("wireless=%d electrical=%d routers, want 16/48", w, e)
	}
}

func TestWCMeshDelivers(t *testing.T) {
	n := BuildWCMesh(Params{Cores: 256, Meter: power.NewMeter(nil)})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 27},
		fabric.RunSpec{Warmup: 1000, Measure: 3000},
	)
	if !res.Drained {
		t.Fatal("failed to drain")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.MaxHops > n.Diameter {
		t.Fatalf("MaxHops %d > diameter %d", res.MaxHops, n.Diameter)
	}
	// All three energy categories must appear: electrical subnet
	// crossbars, wireless grid; no photonics.
	if res.Power.WirelessMW <= 0 || res.Power.ElecLinkMW <= 0 {
		t.Fatalf("power breakdown: %+v", res.Power)
	}
	if res.Power.PhotonicMW != 0 {
		t.Fatal("WCMESH has no photonics")
	}
}

func TestWCMeshPatterns(t *testing.T) {
	for _, pat := range []traffic.Pattern{traffic.BitReversal, traffic.Transpose, traffic.Neighbor} {
		n := BuildWCMesh(Params{Cores: 256})
		res := n.Run(
			fabric.TrafficSpec{Pattern: pat, Rate: 0.003, Seed: 29},
			fabric.RunSpec{Warmup: 500, Measure: 2000},
		)
		if !res.Drained {
			t.Fatalf("%v: failed to drain", pat)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
	}
}

// TestBaselines1024 runs each 1024-core baseline at 0.001 on a window at
// least 2x (warmup) and 6x (measure) the slowest one's latency, p-Clos's
// 1 877 cycles: over a shorter window the saturation verdict reads how the
// network fills (TestShortWindowReadsSaturated), and the run stops
// undrained.
func TestBaselines1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-core baselines in -short mode")
	}
	builders := map[string]func(Params) *fabric.Network{
		"optxb": BuildOptXB, "pclos": BuildPClos, "wcmesh": BuildWCMesh,
	}
	for name, build := range builders {
		n := build(Params{Cores: 1024})
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 31},
			fabric.RunSpec{Warmup: 4000, Measure: 12000},
		)
		if !res.Drained {
			t.Fatalf("%s-1024: failed to drain", name)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s-1024: %v", name, err)
		}
	}
}

// TestShortWindowReadsSaturated pins the saturation verdict's
// precondition: the window must be much longer than the network's latency.
// p-Clos-1024 at 0.001 f/n/c has a latency of 1 877 cycles. Over
// W1000/M2000 it accepts 0.66 of what it is offered, because the network
// is still filling, and the verdict calls it saturated. Over W4000/M12000
// it accepts 0.98 and drains.
func TestShortWindowReadsSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-core p-Clos in -short mode")
	}
	n := BuildPClos(Params{Cores: 1024})
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 31}
	if res := n.Run(ts, fabric.RunSpec{Warmup: 1000, Measure: 2000}); !res.Saturated() {
		t.Errorf("W1000/M2000: accepted %.5f of %.5f offered, want saturated", res.Throughput, res.Offered)
	}
	if res := n.Run(ts, fabric.RunSpec{Warmup: 4000, Measure: 12000}); res.Saturated() || !res.Drained {
		t.Errorf("W4000/M12000: accepted %.5f of %.5f offered, saturated = %v, drained = %v; want neither saturated nor undrained",
			res.Throughput, res.Offered, res.Saturated(), res.Drained)
	}
}
