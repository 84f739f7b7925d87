package wireless

import (
	"math"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/router"
)

// twoNode wires srcRouter --wireless--> dstRouter with one terminal on
// each side. Ports: 0 terminal in/out, 1 wireless TX (router a) / RX
// (router b).
func buildP2PNet(t *testing.T, opts LinkOpts) (*fabric.Network, *power.Meter) {
	t.Helper()
	m := power.NewMeter(nil)
	n := fabric.New("wl-test", 2, m)
	a := n.AddRouter(router.Config{ID: 0, NumPorts: 2, NumVCs: 2, BufDepth: 4,
		Route: func(p *noc.Packet, _ int) (int, uint32) {
			if p.Dst == 0 {
				return 0, 3
			}
			return 1, 3
		}})
	b := n.AddRouter(router.Config{ID: 1, NumPorts: 2, NumVCs: 2, BufDepth: 4,
		Route: func(p *noc.Packet, _ int) (int, uint32) { return 0, 3 }})
	opts.NumVCs, opts.BufDepth = 2, 4
	BuildP2P(n, Endpoint{Router: a, Port: 1}, Endpoint{Router: b, Port: 1}, opts)
	n.AddTerminal(0, a, 0, 0)
	n.AddTerminal(1, b, 0, 0)
	return n, m
}

// oneWay only generates traffic from core 0 to core 1.
type oneWay struct {
	n    int
	sent int
	id   uint64
}

func (g *oneWay) Generate(cycle uint64) *noc.Packet {
	if g.sent >= g.n || cycle%10 != 0 {
		return nil
	}
	g.sent++
	g.id++
	return &noc.Packet{ID: g.id, Src: 0, Dst: 1, NumFlits: 4, Measure: true}
}

func TestBuildP2PEndToEnd(t *testing.T) {
	n, m := buildP2PNet(t, LinkOpts{Name: "t", ChannelID: 5, EPBpJ: 0.7, SerializeCy: 8, PropCy: 1})
	gen := &oneWay{n: 20}
	n.Sources[0].Gen = gen
	ejected := 0
	n.Sinks[1].OnPacket = func(p *noc.Packet, _ uint64) { ejected++ }
	// 20 packets x 4 flits x 8 cy/flit = 640 cycles of air time.
	n.Eng.Run(900)
	if ejected != 20 {
		t.Fatalf("delivered %d packets, want 20", ejected)
	}
	// Energy: 80 flits x 0.7 pJ/bit x 128 bits.
	want := 80.0 * 0.7 * 128
	if e := m.Energy(); math.Abs(float64(e.WirelessTx)-want) > 1e-6 {
		t.Fatalf("wireless energy %v pJ, want %v", e.WirelessTx, want)
	}
	if m.NWirelessFlt != 80 {
		t.Fatalf("wireless flits = %d, want 80", m.NWirelessFlt)
	}
	// Per-channel accounting at the declared channel id: one registered
	// channel, all of the energy.
	m.EachWirelessChannel(func(id int, class string, pj power.Picojoules) {
		if id != 5 || class != "unclassified" || math.Abs(float64(pj)-want) > 1e-6 {
			t.Fatalf("channel %d/%s priced at %v pJ, want 5/unclassified at %v", id, class, pj, want)
		}
	})
}

func TestBuildP2PSerializationThrottles(t *testing.T) {
	// 16 cy/flit: 20 packets x 4 flits = 1280 cycles minimum on air.
	n, _ := buildP2PNet(t, LinkOpts{Name: "slow", SerializeCy: 16, PropCy: 1, EPBpJ: 0.1})
	gen := &oneWay{n: 20}
	n.Sources[0].Gen = gen
	ejected := 0
	n.Sinks[1].OnPacket = func(p *noc.Packet, _ uint64) { ejected++ }
	n.Eng.Run(600)
	if ejected >= 20 {
		t.Fatalf("20 packets cannot fit in 600 cycles at 16 cy/flit (got %d)", ejected)
	}
	n.Eng.Run(1200)
	// All through eventually.
	if ejected != 20 {
		t.Fatalf("delivered %d after extended run", ejected)
	}
}

func TestBuildSWMRMulticastDiscardEnergy(t *testing.T) {
	m := power.NewMeter(nil)
	n := fabric.New("swmr-test", 4, m)
	const vcs, depth = 2, 4
	// Router 0 transmits; routers 1-3 receive (SelectRx by Dst-1).
	mk := func(id int, route router.RouteFunc) *router.Router {
		return n.AddRouter(router.Config{ID: id, NumPorts: 2, NumVCs: vcs, BufDepth: depth, Route: route})
	}
	tx := mk(0, func(p *noc.Packet, _ int) (int, uint32) {
		if p.Dst == 0 {
			return 0, 3
		}
		return 1, 3
	})
	var rxs []Endpoint
	for i := 1; i < 4; i++ {
		r := mk(i, func(p *noc.Packet, _ int) (int, uint32) { return 0, 3 })
		rxs = append(rxs, Endpoint{Router: r, Port: 1})
		n.AddTerminal(i, r, 0, 0)
	}
	n.AddTerminal(0, tx, 0, 0)
	BuildSWMR(n, []Endpoint{{Router: tx, Port: 1}}, rxs,
		func(p *noc.Packet) int { return p.Dst - 1 },
		LinkOpts{Name: "mc", ChannelID: 0, EPBpJ: 1.0, SerializeCy: 4, PropCy: 1, TokenHopCy: 2, NumVCs: vcs, BufDepth: depth})

	// Send one packet to each receiver.
	got := map[int]int{}
	for i := 1; i < 4; i++ {
		i := i
		n.Sinks[i].OnPacket = func(p *noc.Packet, _ uint64) { got[i]++ }
	}
	gen := &roundRobinGen{}
	n.Sources[0].Gen = gen
	n.Eng.Run(400)
	if got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("multicast delivery wrong: %v", got)
	}
	// Each transmitted flit charges 2 receiver discards (3 RX - 1).
	e := m.Energy()
	wantDiscardPJ := float64(m.NWirelessFlt) * 2 * m.P.EWirelessRxDiscardPJPerBit * 128
	if m.NWirelessFlt == 0 || math.Abs(float64(e.WirelessRx)-wantDiscardPJ) > 1e-9 {
		t.Fatalf("discard energy %v for %d flits, want %v", e.WirelessRx, m.NWirelessFlt, wantDiscardPJ)
	}
}

type roundRobinGen struct {
	sent int
	id   uint64
}

func (g *roundRobinGen) Generate(cycle uint64) *noc.Packet {
	if g.sent >= 3 || cycle%20 != 0 {
		return nil
	}
	g.sent++
	g.id++
	return &noc.Packet{ID: g.id, Src: 0, Dst: g.sent, NumFlits: 2}
}

func TestLinkOptsTxDepthDefault(t *testing.T) {
	o := LinkOpts{BufDepth: 4}
	if o.txDepth() != 4 {
		t.Fatal("default tx depth should be BufDepth")
	}
	o.TxQueueDepth = 16
	if o.txDepth() != 16 {
		t.Fatal("explicit tx depth ignored")
	}
}
