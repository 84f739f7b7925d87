package sbus

import (
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// testRx records delivered flits and, when linked to its Rx, returns the
// buffer credit immediately like a real ejection sink.
type testRx struct {
	flits []*noc.Flit
	at    []uint64
	now   *uint64
	rx    *Rx
}

func (r *testRx) ReceiveFlit(port int, f *noc.Flit) {
	r.flits = append(r.flits, f)
	r.at = append(r.at, *r.now)
	if r.rx != nil {
		r.rx.ReturnCredit(f.VC)
	}
}

// testSrc records credits returned to the upstream output port.
type testSrc struct{ credits int }

func (s *testSrc) ReceiveCredit(port, vc int) { s.credits++ }

func sendPacket(w *Writer, id uint64, dst, vc, flits int) *noc.Packet {
	p := &noc.Packet{ID: id, Dst: dst, NumFlits: flits}
	for _, f := range noc.MakeFlits(p) {
		f.VC = vc
		w.Send(f)
	}
	return p
}

func TestChannelSingleWriterDelivery(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 2, 3, 1)
	src := &testSrc{}
	w := ch.AddWriter(src, 0, 2, 8)
	rx := &testRx{now: &now}
	rx.rx = ch.AddRx(rx, 0, 2, 4)

	sendPacket(w, 1, 0, 0, 3)
	for now = 0; now < 40; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 3 {
		t.Fatalf("delivered %d flits, want 3", len(rx.flits))
	}
	// Serialization spacing: successive flits at least SerializeCy apart.
	for i := 1; i < len(rx.at); i++ {
		if rx.at[i]-rx.at[i-1] < 2 {
			t.Fatalf("flits %d,%d delivered %d apart, want >= 2", i-1, i, rx.at[i]-rx.at[i-1])
		}
	}
	if src.credits != 3 {
		t.Fatalf("upstream credits = %d, want 3", src.credits)
	}
	if ch.Queued() != 0 {
		t.Fatalf("Queued = %d after drain", ch.Queued())
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelPacketAtomicity(t *testing.T) {
	// Two writers injecting concurrently: the channel must deliver each
	// packet contiguously (no interleaving), in token order.
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w0 := ch.AddWriter(&testSrc{}, 0, 2, 8)
	w1 := ch.AddWriter(&testSrc{}, 0, 2, 8)
	rx := &testRx{now: &now}
	rx.rx = ch.AddRx(rx, 0, 2, 4)

	sendPacket(w0, 1, 0, 0, 4)
	sendPacket(w1, 2, 0, 0, 4)
	for now = 0; now < 60; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 8 {
		t.Fatalf("delivered %d flits, want 8", len(rx.flits))
	}
	var order []uint64
	for _, f := range rx.flits {
		order = append(order, f.Pkt.ID)
	}
	for i := 1; i < 4; i++ {
		if order[i] != order[0] {
			t.Fatalf("packet interleaving detected: %v", order)
		}
	}
	for i := 5; i < 8; i++ {
		if order[i] != order[4] {
			t.Fatalf("packet interleaving detected: %v", order)
		}
	}
}

func TestChannelTokenRoundRobinFairness(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	const nw = 4
	var writers []*Writer
	for i := 0; i < nw; i++ {
		writers = append(writers, ch.AddWriter(&testSrc{}, 0, 1, 16))
	}
	rx := &testRx{now: &now}
	rx.rx = ch.AddRx(rx, 0, 1, 4)

	// Each writer offers 5 packets.
	id := uint64(1)
	for round := 0; round < 5; round++ {
		for _, w := range writers {
			sendPacket(w, id, 0, 0, 2)
			id++
		}
	}
	for now = 0; now < 500; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 40 {
		t.Fatalf("delivered %d flits, want 40", len(rx.flits))
	}
	// Fairness: in each window of 4 packets, all 4 writers appear.
	var pktWriters []uint64
	for i, f := range rx.flits {
		if i%2 == 0 {
			pktWriters = append(pktWriters, (f.Pkt.ID-1)%nw)
		}
	}
	for win := 0; win+nw <= len(pktWriters); win += nw {
		seen := map[uint64]bool{}
		for _, w := range pktWriters[win : win+nw] {
			seen[w] = true
		}
		if len(seen) != nw {
			t.Fatalf("window %d served writers %v, want all %d", win, pktWriters[win:win+nw], nw)
		}
	}
}

func TestChannelTokenHopCost(t *testing.T) {
	var now uint64
	// Token starts at writer 0; a packet from writer 3 pays 3 hop
	// cycles before transmission.
	ch := NewChannel("t", 1, 0, 5)
	for i := 0; i < 4; i++ {
		ch.AddWriter(&testSrc{}, 0, 1, 8)
	}
	rx := &testRx{now: &now}
	ch.AddRx(rx, 0, 1, 4)
	sendPacket(ch.writers[3], 1, 0, 0, 1)
	for now = 0; now < 40; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 1 {
		t.Fatal("flit not delivered")
	}
	// acquire at cycle 0 pays 15 cycles; transmit at 15, serialize 1,
	// prop 0 -> deliver at 16.
	if rx.at[0] != 16 {
		t.Fatalf("delivered at %d, want 16", rx.at[0])
	}
}

// TestIdleTokenRestsAtLastGrantee pins where an idle token waits and
// what a lone packet pays to reach it. acquire scans d = 1..n writers on
// from the token, so the token rests at the last grantee (at writer 0
// after Reset), and a lone packet from writer v pays
// ((v - token - 1) mod n + 1) * TokenHopCy: the previous holder pays a
// full lap, n * TokenHopCy, not 0. The cost is EvGrant's C operand.
func TestIdleTokenRestsAtLastGrantee(t *testing.T) {
	const n, hop = 4, 3
	eng := sim.NewEngine()
	ch := NewChannel("ring4", 1, 0, hop)
	var w []*Writer
	for range n {
		w = append(w, ch.AddWriter(&testSrc{}, 0, 1, 8))
	}
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	type grant struct{ writer, cost int }
	var grants []grant
	ch.Tap.Subscribe(noc.Mask(noc.EvGrant), func(e noc.Event) { grants = append(grants, grant{e.A, e.C}) })
	ch.SetWaker(eng.RegisterWakeable(sim.PhaseDelivery, ch))

	// A first run leaves the token at writer 3; Reset puts it at 0.
	sendPacket(w[3], 1, 0, 0, 2)
	eng.Run(40)
	eng.Reset()
	grants = grants[:0]

	id := uint64(2)
	for _, tc := range []struct {
		name         string
		writer, cost int
	}{
		{"writer 0 first after Reset: a full lap", 0, n * hop},
		{"writer 2 next: two positions on from 0", 2, 2 * hop},
		{"writer 2 again after an idle gap: a full lap", 2, n * hop},
		{"writer 1: three positions on from 2", 1, 3 * hop},
	} {
		sendPacket(w[tc.writer], id, 0, 0, 2)
		id++
		eng.Run(40)
		if ch.Queued() != 0 || len(grants) != 1 || grants[0] != (grant{tc.writer, tc.cost}) {
			t.Fatalf("%s: grants %+v, %d flits queued; want writer %d granted once at a cost of %d cy", tc.name, grants, ch.Queued(), tc.writer, tc.cost)
		}
		grants = grants[:0]
	}
}

func TestChannelMulticastSelectRx(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx0 := &testRx{now: &now}
	rx1 := &testRx{now: &now}
	rx0.rx = ch.AddRx(rx0, 0, 1, 4)
	rx1.rx = ch.AddRx(rx1, 0, 1, 4)
	ch.SelectRx = func(p *noc.Packet) int { return p.Dst }

	transmits := 0
	ch.Tap.Subscribe(noc.Mask(noc.EvFlitTx), func(e noc.Event) {
		transmits++
		if e.A != e.Pkt.Dst {
			t.Fatalf("EvFlitTx rx %d, want %d", e.A, e.Pkt.Dst)
		}
	})
	sendPacket(w, 1, 1, 0, 2)
	sendPacket(w, 2, 0, 0, 2)
	for now = 0; now < 40; now++ {
		ch.Tick(now)
	}
	if len(rx1.flits) != 2 || len(rx0.flits) != 2 {
		t.Fatalf("rx0=%d rx1=%d flits, want 2 each", len(rx0.flits), len(rx1.flits))
	}
	if transmits != 4 || ch.Transmitted != 4 {
		t.Fatalf("EvFlitTx fired %d times, Transmitted = %d, want 4 each", transmits, ch.Transmitted)
	}
}

func TestChannelRespectsRxCredits(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 16)
	rx := &testRx{now: &now}
	r := ch.AddRx(rx, 0, 1, 2) // only 2 credits, never returned
	_ = r
	sendPacket(w, 1, 0, 0, 8)
	for now = 0; now < 100; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 2 {
		t.Fatalf("delivered %d flits with 2 credits, want 2", len(rx.flits))
	}
	// Returning credits resumes transmission.
	r.ReturnCredit(0)
	r.ReturnCredit(0)
	for ; now < 200; now++ {
		ch.Tick(now)
	}
	if len(rx.flits) != 4 {
		t.Fatalf("delivered %d flits after credit return, want 4", len(rx.flits))
	}
}

func TestChannelWormholeGap(t *testing.T) {
	// Head arrives, body arrives later; channel holds the lock across
	// the gap and another writer cannot cut in.
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w0 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	w1 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx := &testRx{now: &now}
	rx.rx = ch.AddRx(rx, 0, 1, 8)

	p := &noc.Packet{ID: 1, NumFlits: 2}
	fl := noc.MakeFlits(p)
	fl[0].VC, fl[1].VC = 0, 0
	w0.Send(fl[0])
	for now = 0; now < 5; now++ {
		ch.Tick(now)
	}
	sendPacket(w1, 2, 0, 0, 2) // competitor arrives during the gap
	for ; now < 10; now++ {
		ch.Tick(now)
	}
	// Deliver the delayed tail.
	w0.Send(fl[1])
	for ; now < 40; now++ {
		ch.Tick(now)
	}
	ids := []uint64{}
	for _, f := range rx.flits {
		ids = append(ids, f.Pkt.ID)
	}
	if len(ids) < 4 || ids[0] != 1 || ids[1] != 1 {
		t.Fatalf("lock not held across wormhole gap: %v", ids)
	}
}

func TestWriterQueueOverflowPanics(t *testing.T) {
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 2)
	ch.AddRx(&testRx{now: new(uint64)}, 0, 1, 4)
	w.Send(&noc.Flit{Pkt: &noc.Packet{NumFlits: 3}, Type: noc.Head})
	w.Send(&noc.Flit{Pkt: &noc.Packet{NumFlits: 3}, Type: noc.Body})
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	w.Send(&noc.Flit{Pkt: &noc.Packet{NumFlits: 3}, Type: noc.Tail})
}

// Writers are carved from blocks of 1, 2, 4, ... and their queues from
// matching blocks of FIFOs: each keeps its index, its address and queues
// of its own, and a writer of another shape is refused.
func TestWritersCarvedFromBlocks(t *testing.T) {
	ch := NewChannel("t", 1, 0, 1)
	var ws []*Writer
	for i := 0; i < 20; i++ {
		ws = append(ws, ch.AddWriter(&testSrc{}, i, 2, 3))
	}
	p := &noc.Packet{NumFlits: 3}
	for i, w := range ws {
		if w.Index() != i || ch.writers[i] != w {
			t.Fatalf("writer %d: index %d, channel holds %p for %p", i, w.Index(), ch.writers[i], w)
		}
		for vc := 0; vc < 2; vc++ {
			for k := 0; k < 3; k++ {
				w.Send(&noc.Flit{Pkt: p, VC: vc, Seq: 100*i + 10*vc + k})
			}
		}
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		for vc := 0; vc < 2; vc++ {
			q := ch.queue(i, vc)
			for k := 0; k < 3; k++ {
				if f := q.fifo.Front(); f.Seq != 100*i+10*vc+k {
					t.Fatalf("writer %d vc %d: flit %d at position %d", i, vc, f.Seq, k)
				}
				q.pop()
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a writer with deeper queues joined the channel")
		}
	}()
	ch.AddWriter(&testSrc{}, 0, 2, 4)
}

// The audit walks each writer VC's circle of links: a count that
// disagrees with the circle, or a flit of another VC in it, is a breach.
func TestCheckInvariantsWalksWriterQueues(t *testing.T) {
	ch := NewChannel("t", 1, 0, 1)
	ch.AddWriter(&testSrc{}, 0, 2, 3)
	w := ch.AddWriter(&testSrc{}, 1, 2, 3)
	p := &noc.Packet{ID: 7, NumFlits: 3}
	for k := 0; k < 2; k++ {
		w.Send(&noc.Flit{Pkt: p, VC: 1, Seq: k})
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ch.fifos[1*2+1]++
	if err := ch.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "writer 1 vc 1 queue holds 2 flits (depth 3), counted 3") {
		t.Fatalf("a corrupted count passed the audit: %v", err)
	}
	ch.fifos[1*2+1]--
	ch.queue(1, 1).fifo.Front().VC = 0
	if err := ch.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "holds a flit of vc 0") {
		t.Fatalf("a flit of another VC passed the audit: %v", err)
	}
}

func BenchmarkChannelThroughput(b *testing.B) {
	var now uint64
	ch := NewChannel("bench", 1, 1, 1)
	src := &testSrc{}
	w := ch.AddWriter(src, 0, 2, 64)
	rx := &testRx{now: &now}
	rx.rx = ch.AddRx(rx, 0, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One 4-flit packet every 8 cycles stays under the channel's
		// service rate (4 flits serialization + 1 token acquire).
		if i%8 == 0 {
			sendPacket(w, uint64(i), 0, 0, 4)
		}
		ch.Tick(now)
		now++
	}
}
