package topology

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
)

func TestCMeshBuild(t *testing.T) {
	n := BuildCMesh(Params{Cores: 256})
	if len(n.Routers) != 64 {
		t.Fatalf("routers = %d, want 64", len(n.Routers))
	}
	if n.Diameter != 15 {
		t.Fatalf("diameter = %d, want 15", n.Diameter)
	}
	for i, r := range n.Routers {
		if r.Cfg.NumPorts != 8 {
			t.Fatalf("router %d radix %d, want 8", i, r.Cfg.NumPorts)
		}
	}
}

func TestCMeshInvalidCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildCMesh(Params{Cores: 100})
}

func TestCMeshDeliversUniform(t *testing.T) {
	n := BuildCMesh(Params{Cores: 256, Meter: power.NewMeter(nil)})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 1},
		fabric.RunSpec{Warmup: 1000, Measure: 3000},
	)
	if !res.Drained {
		t.Fatal("failed to drain at low load")
	}
	if res.Packets < 100 {
		t.Fatalf("only %d measured packets", res.Packets)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.AvgHops < 4 || res.AvgHops > 8 {
		t.Fatalf("avg hops %v, want ~6.3 for 8x8 CMESH", res.AvgHops)
	}
	if res.Power.TotalMW() <= 0 {
		t.Fatal("power should be positive")
	}
	if res.Power.WirelessMW != 0 || res.Power.PhotonicMW != 0 {
		t.Fatal("CMESH must not charge wireless/photonic energy")
	}
}

// TestCMeshPermutationPatterns runs each permutation at 0.004. Transpose is
// beyond CMESH's transpose plateau (0.0034, Figure 7a): its window accepts
// 0.72 of what it offered, so it is saturated and stops with the window.
// The other three carry the load and drain.
func TestCMeshPermutationPatterns(t *testing.T) {
	for _, pat := range []traffic.Pattern{traffic.BitReversal, traffic.Transpose, traffic.Shuffle, traffic.Neighbor} {
		n := BuildCMesh(Params{Cores: 256})
		res := n.Run(
			fabric.TrafficSpec{Pattern: pat, Rate: 0.004, Seed: 2},
			fabric.RunSpec{Warmup: 500, Measure: 2000},
		)
		if wantSat := pat == traffic.Transpose; res.Saturated() != wantSat {
			t.Fatalf("%v: saturated = %v (accepted %.5f of %.5f offered), want %v", pat, res.Saturated(), res.Throughput, res.Offered, wantSat)
		}
		if !res.Saturated() && !res.Drained {
			t.Fatalf("%v: failed to drain", pat)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
	}
}

func TestCMeshNeighborLowHops(t *testing.T) {
	n := BuildCMesh(Params{Cores: 256})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Neighbor, Rate: 0.004, Seed: 3},
		fabric.RunSpec{Warmup: 500, Measure: 2000},
	)
	// Row neighbors are at most 1 mesh hop apart except the wraparound
	// column; average must be far below uniform's ~6.3.
	if res.AvgHops > 4 {
		t.Fatalf("neighbor avg hops %v, want < 4", res.AvgHops)
	}
}

// TestDropsCountAsOffered: one-packet source queues under overload drop
// most packets they generate. Counted over admitted packets only, the
// window would accept about what it was offered; counted over every
// generated packet, it is saturated, and the run ends with its window.
func TestDropsCountAsOffered(t *testing.T) {
	n := BuildCMesh(Params{Cores: 256})
	for _, s := range n.Sources {
		s.MaxQueue = 1
	}
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, Seed: 5},
		fabric.RunSpec{Warmup: 500, Measure: 2000},
	)
	var dropped uint64
	for _, s := range n.Sources {
		dropped += s.Dropped
	}
	if dropped == 0 || !res.Saturated() {
		t.Fatalf("%d packets dropped; accepted %.5f of %.5f f/n/c offered, saturated = %v, want true",
			dropped, res.Throughput, res.Offered, res.Saturated())
	}
	if res.Offered < 0.045 || res.Offered > 0.055 {
		t.Fatalf("offered %.5f f/n/c at a nominal 0.05", res.Offered)
	}
	if c := n.Eng.Cycle(); c != 2500 {
		t.Fatalf("a saturated run simulated %d cycles, want its window's 2500", c)
	}
}

func TestCMesh1024Scales(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-core build in -short mode")
	}
	n := BuildCMesh(Params{Cores: 1024})
	if len(n.Routers) != 256 {
		t.Fatalf("routers = %d, want 256", len(n.Routers))
	}
	// A window of at least 2x (warmup) and 6x (measure) the 767-cycle
	// latency, so that the saturation verdict reads capacity.
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 4},
		fabric.RunSpec{Warmup: 2000, Measure: 6000},
	)
	if !res.Drained {
		t.Fatal("failed to drain")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCMeshSaturatesNearTheoreticalLoad(t *testing.T) {
	// Well above the equalized capacity (1/128 f/n/c) the network must
	// fail to drain; well below it must drain.
	over := BuildCMesh(Params{Cores: 256})
	resOver := over.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, Seed: 5},
		fabric.RunSpec{Warmup: 1000, Measure: 2000, DrainBudget: 2000},
	)
	if resOver.Drained && resOver.AvgLatency < 200 {
		t.Fatalf("expected congestion at 2.5x capacity; lat=%v drained=%v",
			resOver.AvgLatency, resOver.Drained)
	}
}

func TestWirelessCyPerFlit(t *testing.T) {
	if got := WirelessCyPerFlit(32); got != 8 {
		t.Fatalf("32 Gb/s -> %d cy/flit, want 8", got)
	}
	if got := WirelessCyPerFlit(16); got != 16 {
		t.Fatalf("16 Gb/s -> %d cy/flit, want 16", got)
	}
	if got := WirelessCyPerFlit(10000); got != 1 {
		t.Fatalf("clamp failed: %d", got)
	}
}

func TestEqualizedSerialize(t *testing.T) {
	cases := []struct {
		kind  string
		cores int
		want  int
	}{
		{"cmesh", 256, 16}, {"cmesh", 1024, 32},
		{"optxb", 256, 32}, {"optxb", 1024, 128},
		{"pclos", 256, 32}, {"pclos", 1024, 128},
		{"wcmesh", 256, 1}, {"own", 1024, 1},
	}
	for _, c := range cases {
		if got := EqualizedSerialize(c.kind, c.cores); got != c.want {
			t.Errorf("EqualizedSerialize(%s,%d) = %d, want %d", c.kind, c.cores, got, c.want)
		}
	}
}

func TestUniformSaturationLoad(t *testing.T) {
	if UniformSaturationLoad(256) != 1.0/128 {
		t.Fatal("256-core anchor wrong")
	}
	if UniformSaturationLoad(1024) != 1.0/512 {
		t.Fatal("1024-core anchor wrong")
	}
}
