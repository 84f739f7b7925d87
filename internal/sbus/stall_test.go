package sbus

import (
	"reflect"
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// engineRx returns credits immediately, like the ejection sinks do.
type engineRx struct{ rx *Rx }

func (r *engineRx) ReceiveFlit(port int, f *noc.Flit) {
	if r.rx != nil {
		r.rx.ReturnCredit(f.VC)
	}
}

// buildWatchedChannel assembles an engine-driven two-writer channel and
// records the EvWait/EvGrant stream its tap emits (the first-flit EvWait
// needs the engine clock, so it only fires on waker-driven channels).
func buildWatchedChannel() (*sim.Engine, *Channel, *Writer, *Writer, *[]noc.Event) {
	eng := sim.NewEngine()
	ch := NewChannel("bus0", 1, 0, 1)
	w0 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	w1 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	var evs []noc.Event
	ch.Tap.Subscribe(noc.Mask(noc.EvWait, noc.EvGrant), func(e noc.Event) { evs = append(evs, e) })
	ch.SetWaker(eng.RegisterWakeable(sim.PhaseDelivery, ch))
	return eng, ch, w0, w1, &evs
}

// writerEvents filters the recorded stream down to one writer.
func writerEvents(evs []noc.Event, writer int) []noc.Event {
	var out []noc.Event
	for _, e := range evs {
		if e.A == writer {
			out = append(out, e)
		}
	}
	return out
}

// TestStallTrackingTokenWaitLifecycle pins where the channel opens and
// closes a token wait: EvWait when a writer's first flit queues while it
// does not hold the grant, EvGrant for that writer when it wins.
// flightrec.WaitTable rebuilds the per-writer wait state from exactly
// these two kinds.
func TestStallTrackingTokenWaitLifecycle(t *testing.T) {
	eng, ch, w0, w1, evs := buildWatchedChannel()

	// Writer 0 wins the idle channel; run until it holds the lock.
	sendPacket(w0, 1, 0, 0, 2)
	eng.Run(2)
	// Writer 1 joins while the medium is held: its wait opens now.
	since := eng.Cycle()
	sendPacket(w1, 2, 0, 0, 2)

	got := writerEvents(*evs, 1)
	if len(got) != 1 || got[0].Kind != noc.EvWait || got[0].Cycle != since || got[0].Pkt != nil {
		t.Fatalf("writer 1 events after joining = %+v, want one EvWait at cycle %d", got, since)
	}
	// Body flits of a queued packet open nothing further.
	if n := len(writerEvents(*evs, 0)); n != 2 {
		t.Fatalf("writer 0 saw %d events, want EvWait+EvGrant for its one packet", n)
	}

	// Drain; the wait closes at writer 1's grant.
	eng.Run(20)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	got = writerEvents(*evs, 1)
	if len(got) != 2 || got[1].Kind != noc.EvGrant || got[1].Cycle <= since || got[1].Pkt.ID != 2 {
		t.Fatalf("writer 1 events after drain = %+v, want EvWait then EvGrant for pkt 2 after cycle %d", got, since)
	}
	if got[1].C != 1 {
		t.Errorf("grant token cost = %d cy, want 1 (one ring hop at TokenHopCy 1)", got[1].C)
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStallTrackingReopensWaitOnBackToBackPackets(t *testing.T) {
	eng, ch, w0, w1, evs := buildWatchedChannel()

	// Writer 1 offers two packets; after its first tail releases the
	// lock it must go straight back to waiting for re-arbitration.
	sendPacket(w0, 1, 0, 0, 2)
	eng.Run(2)
	sendPacket(w1, 2, 0, 0, 2)
	sendPacket(w1, 3, 0, 0, 2)
	eng.Run(40)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	var kinds []noc.EventKind
	for _, e := range writerEvents(*evs, 1) {
		kinds = append(kinds, e.Kind)
	}
	want := []noc.EventKind{noc.EvWait, noc.EvGrant, noc.EvWait, noc.EvGrant}
	if len(kinds) != len(want) {
		t.Fatalf("writer 1 event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("writer 1 event kinds = %v, want %v", kinds, want)
		}
	}
}

func TestWriterIDBounds(t *testing.T) {
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 4)
	if got := ch.WriterID(0); got != -1 {
		t.Errorf("unstamped WriterID = %d, want -1", got)
	}
	w.SetID(7)
	if got := ch.WriterID(0); got != 7 {
		t.Errorf("WriterID = %d, want 7", got)
	}
	if ch.WriterID(-1) != -1 || ch.WriterID(5) != -1 {
		t.Error("out-of-range WriterID must be -1")
	}
	if w.Index() != 0 || w.ID() != 7 {
		t.Errorf("writer Index/ID = %d/%d, want 0/7", w.Index(), w.ID())
	}
}

// TestChannelHotPathAllocFreeWithoutTracking pins the instrumentation
// bargain: with nothing subscribed to the channel's tap (the default),
// the send/tick path allocates nothing in steady state.
func TestChannelHotPathAllocFreeWithoutTracking(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	p := &noc.Packet{ID: 1, NumFlits: 2}
	fl := noc.MakeFlits(p)
	iter := func() {
		for _, f := range fl {
			w.Send(f)
		}
		for i := 0; i < 8; i++ {
			ch.Tick(now)
			now++
		}
	}
	iter() // warm the in-flight queue
	iter()
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Errorf("untracked send/tick path allocates %v per packet, want 0", allocs)
	}
}

// TestChannelHotPathAllocFreeWithTracking proves a live subscriber adds
// bookkeeping, not allocation: events travel by value through the tap.
func TestChannelHotPathAllocFreeWithTracking(t *testing.T) {
	var now uint64
	ch := NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	var events, lastCy uint64
	ch.Tap.Subscribe(noc.Mask(noc.EvWait, noc.EvGrant, noc.EvFlitTx, noc.EvRelease, noc.EvDeliver), func(e noc.Event) {
		events, lastCy = events+1, e.Cycle
	})
	fl := noc.MakeFlits(&noc.Packet{ID: 1, NumFlits: 2})
	iter := func() {
		for _, f := range fl {
			w.Send(f)
		}
		for i := 0; i < 8; i++ {
			ch.Tick(now)
			now++
		}
	}
	iter()
	iter()
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Errorf("watched send/tick path allocates %v per packet, want 0", allocs)
	}
	if events == 0 || lastCy == 0 {
		t.Fatal("subscriber saw no events: the fixture exercises nothing")
	}
}

// holdRx keeps every delivered flit's buffer slot: the test returns the
// credits by hand, so it decides when the channel stalls on them.
type holdRx struct{}

func (holdRx) ReceiveFlit(int, *noc.Flit) {}

// blockRig is a two-writer, one-VC channel whose receiver has two buffer
// slots, either waker-driven on an engine or, as the reference, ticked by
// hand on every cycle without a waker. It records the cycles the channel
// was ticked on and the cycles a flit went onto the medium.
type blockRig struct {
	eng    *sim.Engine // nil: the every-cycle twin
	ch     *Channel
	w      [2]*Writer
	rx     *Rx
	flits  []*noc.Flit // writer 0's four-flit packet
	ticks  []uint64
	txAt   []uint64
	stalls []uint64          // Stats().CreditStallCy after every cycle
	inTick map[uint64]uint64 // and right after the channel's tick, inside the cycle
}

func (b *blockRig) Tick(c uint64) {
	b.ticks = append(b.ticks, c)
	b.ch.Tick(c)
	b.inTick[c] = b.ch.Stats().CreditStallCy
}

func newBlockRig(sleeping bool) *blockRig {
	b := &blockRig{ch: NewChannel("bus0", 1, 0, 1), flits: noc.MakeFlits(&noc.Packet{ID: 1, NumFlits: 4}), inTick: map[uint64]uint64{}}
	for i := range b.w {
		b.w[i] = b.ch.AddWriter(&testSrc{}, 0, 1, 8)
	}
	b.rx = b.ch.AddRx(holdRx{}, 0, 1, 2)
	b.ch.Tap.Subscribe(noc.Mask(noc.EvFlitTx), func(e noc.Event) { b.txAt = append(b.txAt, e.Cycle) })
	if sleeping {
		b.eng = sim.NewEngine()
		b.ch.SetWaker(b.eng.RegisterWakeable(sim.PhaseDelivery, b))
	}
	return b
}

// blockScript is what lands on the channel before its tick of each cycle:
// packet 1 arrives in pieces, so the channel meets a wormhole gap (cycle
// 4), a credit stall (10) that an unrelated Send interrupts (15) and a
// credit ends (20), a second gap and stall, and then stalls with writer
// 1's packet on a fresh lock (32).
var blockScript = map[uint64]func(*blockRig){
	0:  func(b *blockRig) { b.w[0].Send(b.flits[0]); b.w[0].Send(b.flits[1]) },
	10: func(b *blockRig) { b.w[0].Send(b.flits[2]) },
	15: func(b *blockRig) { sendPacket(b.w[1], 2, 0, 0, 1) },
	20: func(b *blockRig) { b.rx.ReturnCredit(0) },
	25: func(b *blockRig) { b.w[0].Send(b.flits[3]) },
	30: func(b *blockRig) { b.rx.ReturnCredit(0) },
	40: func(b *blockRig) { b.rx.ReturnCredit(0) },
}

func (b *blockRig) play(t *testing.T, end uint64) {
	t.Helper()
	for c := uint64(0); c < end; c++ {
		if do := blockScript[c]; do != nil {
			do(b)
		}
		// Asleep is only ever asleep for a reason, also right after the
		// Send or the credit that ends it.
		if err := b.ch.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if b.eng != nil {
			b.eng.Step()
		} else {
			b.Tick(c)
		}
		b.stalls = append(b.stalls, b.ch.Stats().CreditStallCy)
		if in := b.ch.Introspect().CreditStallCy; in != b.stalls[c] {
			t.Fatalf("cycle %d: Introspect().CreditStallCy = %d, Stats' %d", c, in, b.stalls[c])
		}
	}
}

// A channel whose locked packet waits for a flit or a credit sleeps until
// the Send or ReturnCredit that ends the wait, transmits on the cycles
// per-cycle ticking transmits on, and reports the credit-stall cycles
// per-cycle ticking counts whenever it is asked, mid-stall included.
func TestBlockedChannelSleepsAndCountsLikePerCycleTicking(t *testing.T) {
	ref, got := newBlockRig(false), newBlockRig(true)
	ref.play(t, 50)
	got.play(t, 50)
	if want := []uint64{2, 3, 20, 30, 40}; !reflect.DeepEqual(ref.txAt, want) || !reflect.DeepEqual(got.txAt, want) {
		t.Fatalf("flits transmitted at %v, per-cycle twin %v, want %v", got.txAt, ref.txAt, want)
	}
	for c := range ref.stalls {
		if got.stalls[c] != ref.stalls[c] {
			t.Fatalf("after cycle %d CreditStallCy = %d, per-cycle twin %d", c, got.stalls[c], ref.stalls[c])
		}
	}
	for c, have := range got.inTick {
		if have != ref.inTick[c] {
			t.Fatalf("inside cycle %d, after the tick, CreditStallCy = %d, per-cycle twin %d", c, have, ref.inTick[c])
		}
	}
	if last := ref.stalls[len(ref.stalls)-1]; last != 10+5+8 {
		t.Fatalf("script stalled %d cycles on credits, want 10 (cycles 10-19) + 5 (25-29) + 8 (32-39)", last)
	}
	// Acquire, the two flits, the gap; the body's stall, the unrelated
	// Send, the credit, the gap again; the tail's stall, its credit; the
	// second lock, its stall, its credit, the last delivery.
	if want := []uint64{0, 2, 3, 4, 10, 15, 20, 21, 25, 30, 31, 32, 40, 41}; !reflect.DeepEqual(got.ticks, want) {
		t.Fatalf("channel ticked on %v, want %v", got.ticks, want)
	}
}

// A wake that a later change forgets must surface as a named violation: a
// credit that appears without ReturnCredit leaves the channel asleep next
// to a flit that could move.
func TestChannelCheckInvariantsReportsLostWakeup(t *testing.T) {
	b := newBlockRig(true)
	b.play(t, 12)     // asleep in the credit stall of cycle 10
	b.rx.credits[0]++ // behind the channel's back
	err := b.ch.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("CheckInvariants = %v, want a lost-wakeup error", err)
	}
}

// Reset in the middle of everything — writer 1's packet is in flight,
// writer 0's holds the lock with its head half serialized and three flits
// queued, the receiver is out of credits, the token has moved — must leave
// the channel a fresh build is: same introspection, and the same transmissions when the
// traffic is offered again. At cycle 12 the channel is also inside a
// credit stall it has not charged yet.
func TestChannelResetMidPacketEqualsAFreshChannel(t *testing.T) {
	type rig struct {
		ch   *Channel
		w    [2]*Writer
		txAt []uint64
	}
	build := func() *rig {
		r := &rig{ch: NewChannel("bus0", 4, 3, 1)}
		for i := range r.w {
			r.w[i] = r.ch.AddWriter(&testSrc{}, 0, 2, 8)
		}
		r.ch.AddRx(holdRx{}, 0, 2, 1)
		r.ch.Tap.Subscribe(noc.Mask(noc.EvFlitTx), func(e noc.Event) { r.txAt = append(r.txAt, e.Cycle) })
		return r
	}
	offer := func(r *rig, upTo uint64) {
		sendPacket(r.w[0], 1, 0, 1, 4)
		sendPacket(r.w[1], 2, 0, 0, 1)
		for c := uint64(0); c < upTo; c++ {
			r.ch.Tick(c)
		}
	}
	for _, stop := range []uint64{7, 12} {
		used, fresh := build(), build()
		offer(used, stop)
		in := used.ch.Introspect()
		if in.LockedWriter != 0 || in.InFlight == 0 || in.RxCredits[0][1] != 0 || in.Queued != 3 || (stop == 7) != (in.BusyUntilCy > stop) {
			t.Fatalf("stop %d: the channel is not mid-packet: %+v", stop, in)
		}
		if stop == 12 && used.ch.stalledAt == 0 {
			t.Fatal("stop 12: the channel is not inside a credit stall")
		}
		used.ch.Reset()
		used.txAt = nil
		if got, want := used.ch.Introspect(), fresh.ch.Introspect(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stop %d: after Reset\n got  %+v\n want %+v", stop, got, want)
		}
		if err := used.ch.CheckInvariants(); err != nil {
			t.Fatalf("stop %d: %v", stop, err)
		}
		offer(used, 40)
		offer(fresh, 40)
		if !reflect.DeepEqual(used.txAt, fresh.txAt) || len(fresh.txAt) != 2 {
			t.Fatalf("stop %d: rewound channel transmitted at %v, fresh one at %v, want two flits", stop, used.txAt, fresh.txAt)
		}
		if got, want := used.ch.Introspect(), fresh.ch.Introspect(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stop %d: after the second run\n got  %+v\n want %+v", stop, got, want)
		}
	}
}
