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

// buildWatchedChannel assembles an engine-driven channel of n writers
// with nvc VCs each (token waits are timed by the engine clock, so only
// waker-driven channels keep them) and records the cycles of writer 1's
// grants and releases.
func buildWatchedChannel(n, nvc int) (eng *sim.Engine, ch *Channel, w []*Writer, grants, releases *[]uint64) {
	eng = sim.NewEngine()
	ch = NewChannel("bus0", 1, 0, 1)
	for range n {
		w = append(w, ch.AddWriter(&testSrc{}, 0, nvc, 8))
	}
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, nvc, 4)
	grants, releases = new([]uint64), new([]uint64)
	ch.Tap.Subscribe(noc.Mask(noc.EvGrant, noc.EvRelease), func(e noc.Event) {
		switch {
		case e.A != 1:
		case e.Kind == noc.EvGrant:
			*grants = append(*grants, e.Cycle)
		default:
			*releases = append(*releases, e.Cycle)
		}
	})
	ch.SetWaker(eng.RegisterWakeable(sim.PhaseDelivery, ch))
	return eng, ch, w, grants, releases
}

// TestStallTrackingTokenWaitLifecycle pins where the channel opens and
// closes a token wait: it opens when a writer's first flit queues while
// the writer does not hold the grant, and closes at that writer's grant,
// which books its length as the writer's longest wait.
func TestStallTrackingTokenWaitLifecycle(t *testing.T) {
	eng, ch, w, grants, _ := buildWatchedChannel(2, 1)

	// Writer 0 wins the idle channel; run until it holds the lock.
	sendPacket(w[0], 1, 0, 0, 2)
	eng.Run(2)
	// Writer 1 joins while the medium is held: its wait opens now.
	since := eng.Cycle()
	sendPacket(w[1], 2, 0, 0, 2)

	ci := ch.Introspect()
	if wr := ci.Writers[1]; !wr.Waiting || wr.WaitingSinceCy != since || wr.HeadPkt != 2 {
		t.Errorf("writer 1 = %+v, want waiting since %d with packet 2 at its head", wr, since)
	}
	if wr := ci.Writers[0]; wr.Waiting || wr.WaitingSinceCy != 0 || wr.MaxWaitCy != 0 {
		t.Errorf("lock holder = %+v, want not waiting and no wait booked (granted on arrival)", wr)
	}

	// Drain; the wait closes at writer 1's grant.
	eng.Run(20)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	if len(*grants) != 1 || (*grants)[0] <= since {
		t.Fatalf("writer 1 granted at %v, want once after cycle %d", *grants, since)
	}
	if wr := ch.Introspect().Writers[1]; wr.Waiting || wr.WaitingSinceCy != 0 || wr.MaxWaitCy != (*grants)[0]-since {
		t.Errorf("writer 1 after its grant = %+v, want a closed wait of %d cy", wr, (*grants)[0]-since)
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIntrospectFollowsTheOpenWait: on every cycle of an open wait the
// channel record names the waiting writer and the cycle its wait opened,
// so a dump taken then prints the wait's length; once every wait has
// closed no writer waits.
func TestIntrospectFollowsTheOpenWait(t *testing.T) {
	eng, ch, w, grants, _ := buildWatchedChannel(3, 1)
	sendPacket(w[0], 1, 0, 0, 4)
	eng.Run(2)
	since := eng.Cycle()
	sendPacket(w[1], 2, 0, 0, 2)

	open := 0
	for len(*grants) == 0 {
		for i, wr := range ch.Introspect().Writers {
			if waits := i == 1; wr.Waiting != waits || (waits && wr.WaitingSinceCy != since) {
				t.Fatalf("cycle %d, writer %d = %+v, want only writer 1 waiting, since %d", eng.Cycle(), i, wr, since)
			}
		}
		open++
		eng.Step()
	}
	if open < 2 {
		t.Fatalf("writer 1 waited %d cycles: the fixture exercises nothing", open)
	}

	eng.Run(20)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	for i, wr := range ch.Introspect().Writers {
		if wr.Waiting || wr.WaitingSinceCy != 0 {
			t.Fatalf("writer %d after drain = %+v, want no open wait", i, wr)
		}
	}
}

// A writer whose tail frees the lock with another packet queued goes
// straight back to waiting, from the release cycle on.
func TestStallTrackingReopensWaitOnBackToBackPackets(t *testing.T) {
	eng, ch, w, grants, releases := buildWatchedChannel(2, 1)

	sendPacket(w[0], 1, 0, 0, 2)
	eng.Run(2)
	sendPacket(w[1], 2, 0, 0, 2)
	sendPacket(w[1], 3, 0, 0, 2)
	reopened := false
	for range 40 {
		eng.Step()
		if len(*releases) == 1 && len(*grants) == 1 {
			if wr := ch.Introspect().Writers[1]; !wr.Waiting || wr.WaitingSinceCy != (*releases)[0] {
				t.Fatalf("cycle %d, after writer 1's first tail: %+v, want waiting since %d", eng.Cycle(), wr, (*releases)[0])
			}
			reopened = true
		}
	}
	if ch.Queued() != 0 || len(*grants) != 2 || !reopened {
		t.Fatalf("Queued = %d, writer 1 granted at %v, reopened %v: want drained after two grants", ch.Queued(), *grants, reopened)
	}
}

// A writer's longest wait over back-to-back packets is the longer of its
// two waits: the first, behind another writer's packet, and the second,
// from its own tail release to its next grant.
func TestLongestWaitOverBackToBackPackets(t *testing.T) {
	eng, ch, w, grants, releases := buildWatchedChannel(2, 1)

	sendPacket(w[0], 1, 0, 0, 2)
	eng.Run(2)
	since := eng.Cycle()
	sendPacket(w[1], 2, 0, 0, 2)
	sendPacket(w[1], 3, 0, 0, 2)
	eng.Run(40)
	if ch.Queued() != 0 || len(*grants) != 2 || len(*releases) != 2 {
		t.Fatalf("Queued = %d, writer 1 granted at %v and released at %v: want drained after two packets", ch.Queued(), *grants, *releases)
	}
	want := max((*grants)[0]-since, (*grants)[1]-(*releases)[0])
	if got := ch.Introspect().Writers[1].MaxWaitCy; got != want || got < 2 {
		t.Errorf("writer 1 MaxWaitCy = %d, want %d (the longer of its two waits, at least writer 0's packet)", got, want)
	}
}

// A writer's wait opens with its first queued flit on any VC: a packet
// that joins on another VC does not restart it.
func TestWaitOpensOnTheWritersFirstFlit(t *testing.T) {
	eng, ch, w, _, _ := buildWatchedChannel(2, 2)
	sendPacket(w[0], 1, 0, 0, 2)
	eng.Run(2)
	since := eng.Cycle()
	sendPacket(w[1], 2, 0, 0, 2)
	eng.Step()
	sendPacket(w[1], 3, 0, 1, 2)
	if wr := ch.Introspect().Writers[1]; !wr.Waiting || wr.WaitingSinceCy != since || wr.Queued != 4 {
		t.Errorf("writer 1 with packets on two VCs = %+v, want 4 flits waiting since %d", wr, since)
	}
}

// A channel without a waker has no clock to time a wait by, so it reports
// none, also with writers queued behind the lock and a tail released with
// more queued.
func TestUnclockedChannelKeepsNoWait(t *testing.T) {
	ch := NewChannel("t", 1, 0, 1)
	w0 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	w1 := ch.AddWriter(&testSrc{}, 0, 1, 8)
	rx := &engineRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	sendPacket(w0, 1, 0, 0, 2)
	sendPacket(w0, 2, 0, 0, 2)
	sendPacket(w1, 3, 0, 0, 2)
	for c := uint64(0); c < 30; c++ {
		ch.Tick(c)
		for _, wr := range ch.Introspect().Writers {
			if wr.Waiting || wr.WaitingSinceCy != 0 || wr.MaxWaitCy != 0 {
				t.Fatalf("cycle %d: untimed writer shows wait state: %+v", c, wr)
			}
		}
	}
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
}

// A rewound channel keeps no wait of the run before: DiffRuns cannot see
// a forgotten wait field, since no Result reads one.
func TestChannelResetForgetsTokenWaits(t *testing.T) {
	eng, ch, w, grants, _ := buildWatchedChannel(2, 1)
	sendPacket(w[0], 1, 0, 0, 2)
	eng.Run(2)
	sendPacket(w[1], 2, 0, 0, 2)
	sendPacket(w[1], 3, 0, 0, 2)
	for len(*grants) == 0 {
		eng.Step()
	}
	// Writer 1 holds the lock with packet 3 queued: a wait closed, and
	// writer 0's tail reopened nothing. Let writer 0 queue behind it.
	sendPacket(w[0], 4, 0, 0, 2)
	in := ch.Introspect()
	if in.Writers[1].MaxWaitCy == 0 || !in.Writers[0].Waiting {
		t.Fatalf("fixture holds no closed wait and no open one: %+v", in.Writers)
	}
	ch.Reset()
	_, fresh, _, _, _ := buildWatchedChannel(2, 1)
	if got, want := ch.Introspect(), fresh.Introspect(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset\n got  %+v\n want %+v", got, want)
	}
	for i, wr := range ch.writers {
		if wr.waitFrom != 0 || wr.maxWait != 0 {
			t.Errorf("writer %d after Reset: waitFrom %d, maxWait %d, want 0", i, wr.waitFrom, wr.maxWait)
		}
	}
}

// The wait bookkeeping of a waker-driven channel is stores into fields
// sized at AddWriter: a contended send/grant path allocates nothing.
func TestTokenWaitBookkeepingAllocFree(t *testing.T) {
	eng, ch, w, _, _ := buildWatchedChannel(2, 1)
	a, b := noc.MakeFlits(&noc.Packet{ID: 1, NumFlits: 2}), noc.MakeFlits(&noc.Packet{ID: 2, NumFlits: 2})
	iter := func() {
		for i := range a {
			w[0].Send(a[i])
			w[1].Send(b[i])
		}
		eng.Run(12)
	}
	iter() // warm the in-flight queue
	iter()
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Errorf("contended send/grant path allocates %v per round, want 0", allocs)
	}
	if in := ch.Introspect(); in.Queued != 0 || in.Writers[0].MaxWaitCy == 0 {
		t.Fatalf("the fixture did not drain or timed no wait: %+v", in)
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
	ch.Tap.Subscribe(noc.Mask(noc.EvGrant, noc.EvFlitTx, noc.EvRelease, noc.EvDeliver), func(e noc.Event) {
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
