package router

import (
	"strings"
	"testing"
	"testing/quick"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// nullCreditReturner discards credits: the upstream of an input buffer
// whose feeder applies its own backpressure.
type nullCreditReturner struct{}

func (nullCreditReturner) ReturnCredit(int) {}

func TestRRBefore(t *testing.T) {
	// After granting 1 in a ring of 4, priority order is 2,3,0,1.
	if !rrBefore(1, 2, 3, 4) || !rrBefore(1, 3, 0, 4) || !rrBefore(1, 0, 1, 4) {
		t.Fatal("rrBefore ordering wrong")
	}
	if rrBefore(1, 1, 2, 4) {
		t.Fatal("last-granted should have lowest priority")
	}
}

func TestRRBeforeProperties(t *testing.T) {
	f := func(last, a, b uint8) bool {
		n := 8
		l, x, y := int(last)%n, int(a)%n, int(b)%n
		if x == y {
			return !rrBefore(l, x, y, n) // irreflexive
		}
		// Antisymmetric: exactly one of the two orders holds.
		return rrBefore(l, x, y, n) != rrBefore(l, y, x, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	New(Config{NumPorts: 0, NumVCs: 4, BufDepth: 4})
}

func TestDoubleConnectPanics(t *testing.T) {
	r := New(Config{NumPorts: 2, NumVCs: 2, BufDepth: 2, Route: nil})
	r.ConnectInput(0, nullCreditReturner{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double input connect")
		}
	}()
	r.ConnectInput(0, nullCreditReturner{})
}

func TestBufferOverflowPanics(t *testing.T) {
	r := New(Config{NumPorts: 1, NumVCs: 1, BufDepth: 1, Route: func(*noc.Packet, int) (int, uint32) { return 0, 1 }})
	r.ConnectInput(0, nullCreditReturner{})
	p := &noc.Packet{NumFlits: 2}
	fl := noc.MakeFlits(p)
	r.ReceiveFlit(0, fl[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	r.ReceiveFlit(0, fl[1])
}

// lineNet is a Source -> R0 -> R1 -> Sink test network.
type lineNet struct {
	eng    *sim.Engine
	src    *Source
	r0, r1 *Router
	sink   *Sink
	got    []*noc.Packet
}

// Port map: router port 0 = terminal side, port 1 = network side.
func newLineNet(t *testing.T, numVCs, depth, linkDelay int) *lineNet {
	t.Helper()
	n := &lineNet{eng: sim.NewEngine()}
	route0 := func(p *noc.Packet, in int) (int, uint32) { return 1, (1 << uint(numVCs)) - 1 }
	route1 := func(p *noc.Packet, in int) (int, uint32) { return 0, (1 << uint(numVCs)) - 1 }
	n.r0 = New(Config{ID: 0, NumPorts: 2, NumVCs: numVCs, BufDepth: depth, Route: route0})
	n.r1 = New(Config{ID: 1, NumPorts: 2, NumVCs: numVCs, BufDepth: depth, Route: route1})
	n.sink = NewSink(9)
	n.sink.OnPacket = func(p *noc.Packet, cycle uint64) { n.got = append(n.got, p) }

	// Source -> r0 port 0. The source and its wire reference each other,
	// so create the source first and attach the conduit after.
	n.src = NewSource(5, nil, numVCs, depth)
	wIn := noc.NewWire(n.src, 0, n.r0, 0, 1, 1)
	n.src.SetConduit(wIn)
	n.r0.ConnectInput(0, wIn)

	// r0 port 1 -> r1 port 1.
	w01 := noc.NewWire(n.r0, 1, n.r1, 1, linkDelay, 1)
	n.r0.ConnectOutput(1, w01, depth, 1)
	n.r1.ConnectInput(1, w01)

	// r1 port 0 -> sink.
	wOut := noc.NewWire(n.r1, 0, n.sink, 0, 1, 1)
	n.r1.ConnectOutput(0, wOut, depth, 1)
	n.sink.SetUpstream(wOut)

	n.sink.SetClock(n.eng)
	n.eng.Register(sim.PhaseDelivery, wIn)
	n.eng.Register(sim.PhaseDelivery, w01)
	n.eng.Register(sim.PhaseDelivery, wOut)
	n.eng.Register(sim.PhaseCompute, n.src)
	n.eng.Register(sim.PhaseCompute, n.r0)
	n.eng.Register(sim.PhaseCompute, n.r1)
	return n
}

// oneShotGen emits a fixed list of packets, each no earlier than its
// scheduled cycle, at most one per cycle (packets whose cycle collides are
// emitted on subsequent cycles).
type oneShotGen struct {
	sched []schedPkt
	next  int
}

type schedPkt struct {
	at uint64
	p  *noc.Packet
}

func (g *oneShotGen) add(at uint64, p *noc.Packet) {
	g.sched = append(g.sched, schedPkt{at, p})
}

func (g *oneShotGen) Generate(cycle uint64) *noc.Packet {
	if g.next >= len(g.sched) || g.sched[g.next].at > cycle {
		return nil
	}
	p := g.sched[g.next].p
	g.next++
	return p
}

func TestSinglePacketTraversal(t *testing.T) {
	n := newLineNet(t, 2, 4, 1)
	p := &noc.Packet{ID: 1, Src: 5, Dst: 9, NumFlits: 4, Measure: true}
	gen := &oneShotGen{}
	gen.add(0, p)
	n.src.Gen = gen
	n.eng.Run(100)
	if len(n.got) != 1 {
		t.Fatalf("ejected %d packets, want 1", len(n.got))
	}
	if n.got[0] != p {
		t.Fatal("wrong packet ejected")
	}
	if p.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", p.Hops)
	}
	if p.EjectedAt <= p.InjectedAt {
		t.Fatalf("ejection %d not after injection %d", p.EjectedAt, p.InjectedAt)
	}
	// Zero-load latency sanity: 2 routers x (RC+VCA+SA) + 3 wire hops +
	// serialization of 4 flits. Expect under ~20 cycles.
	if lat := p.Latency(); lat < 8 || lat > 25 {
		t.Fatalf("unexpected zero-load latency %d", lat)
	}
	if err := n.r0.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := n.r1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	n := newLineNet(t, 4, 4, 2)
	gen := &oneShotGen{}
	const count = 50
	for i := 0; i < count; i++ {
		gen.add(uint64(i), &noc.Packet{ID: uint64(i + 1), Src: 5, Dst: 9, NumFlits: 5})
	}
	n.src.Gen = gen
	n.eng.Run(1000)
	if len(n.got) != count {
		t.Fatalf("ejected %d packets, want %d", len(n.got), count)
	}
	// Single source, single path: packets stay ordered.
	for i := 1; i < len(n.got); i++ {
		if n.got[i].ID < n.got[i-1].ID {
			t.Fatalf("reordering on a single path: %d before %d", n.got[i-1].ID, n.got[i].ID)
		}
	}
	if n.r0.BufferedFlits() != 0 || n.r1.BufferedFlits() != 0 {
		t.Fatal("flits left buffered after drain")
	}
}

// BufferedFlits reads the buffered mirror; CheckInvariants recounts the
// input VCs and names a mirror that drifted from them.
func TestBufferedMirrorDriftTrips(t *testing.T) {
	n := newLineNet(t, 2, 4, 1)
	gen := &oneShotGen{}
	gen.add(0, &noc.Packet{ID: 1, Src: 5, Dst: 9, NumFlits: 4})
	n.src.Gen = gen
	for i := 0; i < 20 && n.r0.BufferedFlits() == 0; i++ {
		n.eng.Step()
	}
	if n.r0.BufferedFlits() == 0 {
		t.Fatal("no flit reached r0's buffers")
	}
	if err := n.r0.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n.r0.buffered++
	if err := n.r0.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "buffered mirror") {
		t.Fatalf("a drifted mirror passed the audit: %v", err)
	}
}

func TestBackpressureRespectsBuffers(t *testing.T) {
	// Tiny buffers and slow serialization on r1's sink port force
	// backpressure all the way to the source; nothing may overflow
	// (overflow panics in ReceiveFlit).
	n := newLineNet(t, 2, 2, 1)
	gen := &oneShotGen{}
	for i := 0; i < 30; i++ {
		gen.add(uint64(i), &noc.Packet{ID: uint64(i + 1), Src: 5, Dst: 9, NumFlits: 5})
	}
	n.src.Gen = gen
	n.eng.Run(2000)
	if len(n.got) != 30 {
		t.Fatalf("ejected %d packets, want 30", len(n.got))
	}
}

func TestWormholeBodyFollowsHead(t *testing.T) {
	n := newLineNet(t, 2, 4, 1)
	gen := &oneShotGen{}
	gen.add(0, &noc.Packet{ID: 1, Src: 5, Dst: 9, NumFlits: 8})
	n.src.Gen = gen
	n.eng.Run(200)
	if len(n.got) != 1 {
		t.Fatal("packet not delivered")
	}
}

func TestSourceVCPolicy(t *testing.T) {
	n := newLineNet(t, 4, 4, 1)
	n.src.Policy = func(p *noc.Packet) uint32 { return 1 << 2 } // only VC2
	gen := &oneShotGen{}
	gen.add(0, &noc.Packet{ID: 1, Src: 5, Dst: 9, NumFlits: 2, Class: 1})
	n.src.Gen = gen
	n.eng.Run(100)
	if len(n.got) != 1 {
		t.Fatal("packet not delivered under restrictive VC policy")
	}
}

func TestSourceDropsWhenQueueFull(t *testing.T) {
	n := newLineNet(t, 2, 2, 1)
	n.src.MaxQueue = 2
	gen := &oneShotGen{}
	// Long packets so the queue backs up behind slow injection.
	for i := 0; i < 10; i++ {
		gen.add(uint64(i), &noc.Packet{ID: uint64(i + 1), Src: 5, Dst: 9, NumFlits: 30})
	}
	n.src.Gen = gen
	n.eng.Run(40)
	if n.src.Dropped == 0 {
		t.Fatal("expected drops with MaxQueue=2 and long packets")
	}
	if n.src.Generated != 10 {
		t.Fatalf("Generated = %d, want 10", n.src.Generated)
	}
}

func TestCreditsConservedProperty(t *testing.T) {
	// After any admissible run, credits at every output port must be in
	// [0, max]; CheckInvariants verifies.
	f := func(seed uint64, burst uint8) bool {
		n := newLineNet(t, 2, 3, 1)
		rng := sim.NewRNG(seed)
		gen := &oneShotGen{}
		count := int(burst%20) + 1
		for i := 0; i < count; i++ {
			gen.add(uint64(rng.Intn(30)), &noc.Packet{ID: uint64(i + 1), Src: 5, Dst: 9, NumFlits: rng.Intn(6) + 1})
		}
		n.src.Gen = gen
		n.eng.Run(500)
		return len(n.got) == count &&
			n.r0.CheckInvariants() == nil && n.r1.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMisroutedPacketPanicsAtSink(t *testing.T) {
	s := NewSink(3)
	p := &noc.Packet{ID: 1, Dst: 4, NumFlits: 1}
	fl := noc.MakeFlits(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misrouted packet")
		}
	}()
	s.ReceiveFlit(0, fl[0])
}

// TestSinkChecksOrderPerVC: the sink checks flit order per VC, not per
// packet. Two packets interleaved flit by flit on two VCs eject, and so do
// two packets back to back on one VC; two packets interleaved on one VC,
// or one packet's flits swapped, panic.
func TestSinkChecksOrderPerVC(t *testing.T) {
	flits := func(id uint64, vc int) []*noc.Flit {
		fl := noc.MakeFlits(&noc.Packet{ID: id, Dst: 3, NumFlits: 3})
		for _, f := range fl {
			f.VC = vc
		}
		return fl
	}
	deliver := func(order ...*noc.Flit) (ejected uint64, fault any) {
		s := NewSink(3)
		s.SetClock(sim.NewEngine())
		defer func() { ejected, fault = s.Ejected, recover() }()
		for _, f := range order {
			s.ReceiveFlit(0, f)
		}
		return
	}
	a, b := flits(1, 0), flits(2, 1)
	if ejected, fault := deliver(a[0], b[0], a[1], b[1], a[2], b[2]); fault != nil || ejected != 2 {
		t.Errorf("two packets interleaved on two VCs: ejected %d, panic %v; want 2 and none", ejected, fault)
	}
	a, b = flits(1, 0), flits(2, 0)
	if ejected, fault := deliver(append(a, b...)...); fault != nil || ejected != 2 {
		t.Errorf("two packets back to back on one VC: ejected %d, panic %v; want 2 and none", ejected, fault)
	}
	a, b = flits(1, 0), flits(2, 0)
	if _, fault := deliver(a[0], b[0], a[1], b[1], a[2], b[2]); fault == nil {
		t.Error("two packets interleaved on one VC: no panic")
	}
	a = flits(1, 0)
	if _, fault := deliver(a[0], a[2], a[1]); fault == nil {
		t.Error("one packet's flits out of order: no panic")
	}
}

// starNet wires two sources through one router to one sink to expose
// switch-allocation constraints: both input ports compete for a single
// output port.
func TestSAOnePerOutputPortPerCycle(t *testing.T) {
	eng := sim.NewEngine()
	// Router ports: 0,1 inputs from sources; 2 output to sink.
	r := New(Config{ID: 0, NumPorts: 3, NumVCs: 2, BufDepth: 4,
		Route: func(*noc.Packet, int) (int, uint32) { return 2, 3 }})
	snk := NewSink(9)
	var arrivals []uint64
	var cur uint64
	snk.OnPacket = func(p *noc.Packet, cycle uint64) {}
	snk.SetClock(eng)

	wOut := noc.NewWire(r, 2, snk, 0, 1, 1)
	r.ConnectOutput(2, wOut, 4, 1)
	snk.SetUpstream(wOut)
	eng.Register(sim.PhaseDelivery, wOut)

	var srcs []*Source
	for i := 0; i < 2; i++ {
		s := NewSource(i, nil, 2, 4)
		w := noc.NewWire(s, 0, r, i, 1, 1)
		s.SetConduit(w)
		r.ConnectInput(i, w)
		eng.Register(sim.PhaseDelivery, w)
		eng.Register(sim.PhaseCompute, s)
		gen := &oneShotGen{}
		for k := 0; k < 10; k++ {
			gen.add(uint64(k), &noc.Packet{ID: uint64(i*100 + k), Src: i, Dst: 9, NumFlits: 1})
		}
		s.Gen = gen
		srcs = append(srcs, s)
	}
	eng.Register(sim.PhaseCompute, r)

	// Observe per-cycle deliveries at the sink wire: at most one flit
	// can traverse output port 2 per cycle.
	base := snk.OnPacket
	_ = base
	snk.OnPacket = func(p *noc.Packet, cycle uint64) { arrivals = append(arrivals, cycle) }
	for cur = 0; eng.Cycle() < 200; cur++ {
		eng.Step()
	}
	if len(arrivals) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(arrivals))
	}
	perCycle := map[uint64]int{}
	for _, c := range arrivals {
		perCycle[c]++
		if perCycle[c] > 1 {
			t.Fatalf("two packets traversed one output port in cycle %d", c)
		}
	}
	// Fairness: both sources delivered all packets within the window;
	// a starved source would be missing.
	_ = srcs
}

func TestVCAExclusiveOwnership(t *testing.T) {
	// Two single-flit packets on different input VCs both want output
	// port 1 with only one VC available: VCA must serialize them rather
	// than corrupt ownership (CheckInvariants verifies consistency).
	n := newLineNet(t, 1, 2, 1) // 1 VC forces exclusive ownership
	gen := &oneShotGen{}
	for i := 0; i < 10; i++ {
		gen.add(uint64(i), &noc.Packet{ID: uint64(i + 1), Src: 5, Dst: 9, NumFlits: 3})
	}
	n.src.Gen = gen
	n.eng.Run(500)
	if len(n.got) != 10 {
		t.Fatalf("delivered %d, want 10", len(n.got))
	}
	if err := n.r0.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// gapGen emits a packet of flits flits (0: one) every period cycles and
// counts how it is driven.
type gapGen struct {
	period            uint64
	flits             int
	generates, asksNP int
}

func (g *gapGen) Generate(cycle uint64) *noc.Packet {
	g.generates++
	if cycle%g.period != 0 {
		return nil
	}
	return &noc.Packet{ID: cycle + 1, Src: 5, Dst: 9, NumFlits: max(g.flits, 1)}
}

func (g *gapGen) NextPending(from uint64) (uint64, bool) {
	g.asksNP++
	return (from + g.period - 1) / g.period * g.period, true
}

// A source on a sleeping engine rides its generator's NextPending through
// the gaps; on a DisableSleep engine (the conformance oracle's reference
// schedule) it polls Generate every cycle and never asks.
func TestSourceConsultsNextWakerOnlyWhenItCanSleep(t *testing.T) {
	run := func(disableSleep bool) *gapGen {
		eng := sim.NewEngine()
		if disableSleep {
			eng.DisableSleep()
		}
		src := NewSource(5, nopConduit{}, 1, 1<<20)
		src.SetWaker(eng.RegisterWakeable(sim.PhaseCompute, src))
		g := &gapGen{period: 100}
		src.SetGenerator(g)
		eng.Run(1000)
		if src.Injected != 10 {
			t.Fatalf("disableSleep=%v: injected %d packets, want 10", disableSleep, src.Injected)
		}
		return g
	}
	if g := run(false); g.asksNP == 0 || g.generates >= 100 {
		t.Fatalf("sleeping engine: %d NextPending calls, %d Generate calls; want look-ahead", g.asksNP, g.generates)
	}
	if g := run(true); g.asksNP != 0 || g.generates != 1000 {
		t.Fatalf("DisableSleep engine: %d NextPending calls, %d Generate calls; want 0 and 1000", g.asksNP, g.generates)
	}
}

type nopConduit struct{}

func (nopConduit) Send(*noc.Flit) {}
