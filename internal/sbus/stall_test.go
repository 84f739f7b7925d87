package sbus

import (
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
