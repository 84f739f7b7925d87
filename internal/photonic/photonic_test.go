package photonic

import (
	"testing"
	"testing/quick"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/traffic"
)

func TestSWMRInventoryMatchesPaper(t *testing.T) {
	// Paper intro: 64x64 SWMR -> 448 modulators, 7 waveguides, 28224
	// photodetectors.
	inv := SWMRInventory(64)
	if inv.Modulators != 448 {
		t.Fatalf("modulators = %d, want 448", inv.Modulators)
	}
	if inv.Waveguides != 7 {
		t.Fatalf("waveguides = %d, want 7", inv.Waveguides)
	}
	if inv.Photodetectors != 28224 {
		t.Fatalf("photodetectors = %d, want 28224", inv.Photodetectors)
	}
	// 1024x1024 -> ~7168 modulators, 112 waveguides, ~7.3M detectors.
	inv = SWMRInventory(1024)
	if inv.Modulators != 7168 {
		t.Fatalf("modulators = %d, want 7168", inv.Modulators)
	}
	if inv.Waveguides != 112 {
		t.Fatalf("waveguides = %d, want 112", inv.Waveguides)
	}
	if inv.Photodetectors != 7168*1023 {
		t.Fatalf("photodetectors = %d, want %d", inv.Photodetectors, 7168*1023)
	}
}

func TestMWSRInventory(t *testing.T) {
	// OptXB-64 (MWSR, Corona-style): modulator count dominates; paper
	// remarks the 64-router / 64-wavelength snake needs more than a
	// million rings when scaled; our per-cluster 16-tile crossbar is
	// far smaller, which is OWN's point.
	own := MWSRInventory(16).Scale(4) // four OWN-256 clusters
	optxb := MWSRInventory(64)
	if own.Rings >= optxb.Rings {
		t.Fatalf("OWN cluster rings %d should be far below OptXB %d", own.Rings, optxb.Rings)
	}
	if optxb.Modulators != 7*64*63 {
		t.Fatalf("OptXB modulators = %d", optxb.Modulators)
	}
}

func TestInventoryAddScaleProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		n1, n2 := int(a%30)+2, int(b%30)+2
		x, y := MWSRInventory(n1), MWSRInventory(n2)
		sum := x.Add(y)
		return sum.Rings == x.Rings+y.Rings &&
			sum.Modulators == x.Modulators+y.Modulators &&
			x.Scale(3).Rings == 3*x.Rings
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildTestCluster wires 4 routers with a 4-tile crossbar: each router has
// 1 terminal (port 0), 3 photonic write ports (1..3) and 1 photonic read
// port (4).
func buildTestCluster(t *testing.T) *fabric.Network {
	t.Helper()
	n := fabric.New("photo-test", 4, power.NewMeter(nil))
	const tiles, numPorts = 4, 5
	routers := make([]*router.Router, tiles)
	for i := 0; i < tiles; i++ {
		tile := i
		routers[i] = n.AddRouter(router.Config{
			ID: i, NumPorts: numPorts, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, in int) (int, uint32) {
				dstTile := p.Dst
				if dstTile == tile {
					return 0, 3 // terminal
				}
				// Write port toward tile dstTile: ports 1..3 in
				// ascending remote-tile order.
				port := 1
				for r := 0; r < tiles; r++ {
					if r == tile {
						continue
					}
					if r == dstTile {
						return port, 3
					}
					port++
				}
				panic("unreachable")
			},
		})
	}
	pm := PortMap{
		WriterPort: func(w, tt int) int {
			port := 1
			for r := 0; r < 4; r++ {
				if r == w {
					continue
				}
				if r == tt {
					return port
				}
				port++
			}
			panic("bad pair")
		},
		ReaderPort: func(int) int { return 4 },
	}
	BuildCrossbar(n, "c0", routers, pm, CrossbarSpec{
		Tiles: tiles, SerializeCy: 1, PropCy: 2, TokenHopCy: 1, NumVCs: 2, BufDepth: 4,
	})
	for c := 0; c < 4; c++ {
		n.AddTerminal(c, routers[c], 0, 0)
	}
	return n
}

func TestCrossbarEndToEnd(t *testing.T) {
	n := buildTestCluster(t)
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.1, PktFlits: 3, Seed: 9},
		fabric.RunSpec{Warmup: 200, Measure: 1000},
	)
	if !res.Drained {
		t.Fatal("crossbar failed to drain")
	}
	if res.Packets < 20 {
		t.Fatalf("only %d packets measured", res.Packets)
	}
	// Exactly 2 router traversals: source tile and destination tile.
	if res.MaxHops != 2 {
		t.Fatalf("MaxHops = %d, want 2", res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drained means every measured packet ejected; unmeasured ones may
	// still be in flight. Silence the sources and step until nothing is
	// scheduled: then no flit may be left and every credit must be home.
	for _, src := range n.Sources {
		src.SetGenerator(nil)
	}
	for budget := 10_000; !n.Eng.Quiescent(); budget-- {
		if budget == 0 {
			t.Fatal("the network did not go quiescent after its sources stopped")
		}
		n.Eng.Step()
	}
	if q := n.Progress().ChannelQueued; q != 0 {
		t.Fatalf("crossbar still holds %d flits", q)
	}
	for _, r := range n.Routers {
		if r.BufferedFlits() != 0 {
			t.Fatalf("router %d still buffers %d flits", r.Cfg.ID, r.BufferedFlits())
		}
	}
	if len(n.Channels) != 4 {
		t.Fatalf("crossbar built %d home channels, want one per tile", len(n.Channels))
	}
	for _, ch := range n.Channels {
		for rx, credits := range ch.Introspect().RxCredits {
			for vc, c := range credits {
				if c != 4 {
					t.Fatalf("%s receiver %d vc %d holds %d credits, want all 4 home", ch.Name, rx, vc, c)
				}
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Power.PhotonicMW <= 0 {
		t.Fatal("photonic energy not charged")
	}
	if res.Power.ElecLinkMW != 0 {
		t.Fatal("no electrical links in this cluster")
	}
}

func TestCrossbarBuilderValidation(t *testing.T) {
	n := fabric.New("bad", 4, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for router/tile mismatch")
		}
	}()
	BuildCrossbar(n, "bad", nil, PortMap{}, CrossbarSpec{Tiles: 4})
}
