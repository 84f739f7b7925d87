package fabric_test

import (
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
)

// busPair is two one-core routers: router 0 writes to router 1 over a
// shared channel, and router 1 answers over a wire. It also returns the
// channel's writer and scheduling handle, so a test can break the channel
// behind its back.
func busPair() (*fabric.Network, *sbus.Writer, *sim.Waker) {
	n := fabric.New("bus", 2, nil)
	rs := make([]*router.Router, 2)
	for i := range rs {
		id := i
		rs[i] = n.AddRouter(router.Config{
			ID: id, NumPorts: 2, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == id {
					return 0, 3
				}
				return 1, 3
			},
		})
	}
	ch := sbus.NewChannel("bus", 1, 2, 1)
	wr := ch.AddWriter(rs[0], 1, 2, 4)
	rs[0].ConnectOutput(1, wr, 4, 1)
	rs[1].ConnectInput(1, ch.AddRx(rs[1], 1, 2, 4))
	waker := n.Eng.RegisterWakeable(sim.PhaseDelivery, ch)
	ch.SetWaker(waker)
	n.TrackChannel(ch)
	n.Connect(rs[1], 1, rs[0], 1, fabric.LinkSpec{Delay: 1})
	for c, r := range rs {
		n.AddTerminal(c, r, 0, 0)
	}
	return n, wr, waker
}

// onePacket hands its packet to the first Generate call.
type onePacket struct{ p *noc.Packet }

func (g *onePacket) Generate(uint64) *noc.Packet {
	p := g.p
	g.p = nil
	return p
}

// CheckInvariants walks the shared channels and the sources as well as the
// routers: on a network that ran clean, it names a lost wakeup seeded into
// either.
func TestCheckInvariantsNamesChannelAndSourceBreaches(t *testing.T) {
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 4}
	rs := fabric.RunSpec{Warmup: 100, Measure: 800}
	ranClean := func(n *fabric.Network) {
		t.Helper()
		if res := n.Run(ts, rs); !res.Drained || res.Packets == 0 {
			t.Fatalf("fixture run: drained %v, %d packets", res.Drained, res.Packets)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	breach := func(n *fabric.Network, want string) {
		t.Helper()
		if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("CheckInvariants = %v, want an error naming %q", err, want)
		}
	}

	// A flit reaches the channel, and the channel goes back to sleep
	// next to it.
	n, wr, waker := busPair()
	ranClean(n)
	wr.Send(noc.MakeFlits(&noc.Packet{ID: 1 << 40, Dst: 1, NumFlits: 1})[0])
	waker.Sleep()
	breach(n, "sbus bus: asleep")

	// A packet reaches a sleeping source through a tick the engine did
	// not schedule (Gen set directly, not through SetGenerator, which
	// wakes): the source is busy, holds credits, and sleeps on.
	n = crossbar16()
	ranClean(n)
	src := n.Sources[3]
	src.Gen = &onePacket{&noc.Packet{ID: 1 << 40, Src: 3, Dst: 5, NumFlits: 3}}
	src.Tick(n.Eng.Cycle())
	breach(n, "source 3 asleep")
}
