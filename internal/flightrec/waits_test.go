package flightrec

import (
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
)

// buildWatchedChannel assembles an engine-driven two-writer channel with
// a WaitTable subscribed (token-wait timestamps need the engine clock, so
// the first-flit EvWait only fires on waker-driven channels).
func buildWatchedChannel() (*sim.Engine, *sbus.Channel, *WaitTable, *sbus.Writer, *sbus.Writer) {
	eng := sim.NewEngine()
	ch := sbus.NewChannel("bus0", 1, 0, 1)
	ch.Kind = "photonic"
	w0 := ch.AddWriter(chanSrc{}, 0, 1, 8)
	w0.SetID(10)
	w1 := ch.AddWriter(chanSrc{}, 0, 1, 8)
	w1.SetID(11)
	rx := &chanRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	waits := NewWaitTable([]*sbus.Channel{ch})
	ch.SetWaker(eng.RegisterWakeable(sim.PhaseDelivery, ch))
	return eng, ch, waits, w0, w1
}

// filled returns the channel's introspection with the wait state filled.
func filled(ch *sbus.Channel, waits *WaitTable) sbus.ChannelIntro {
	ci := ch.Introspect()
	waits.Fill(0, &ci)
	return ci
}

func TestWaitTableTokenWaitLifecycle(t *testing.T) {
	eng, ch, waits, w0, w1 := buildWatchedChannel()

	// Writer 0 wins the idle channel; run until it holds the lock.
	sendFlits(w0, &noc.Packet{ID: 1, NumFlits: 2}, 2)
	eng.Run(2)
	// Writer 1 joins while the medium is held: its wait opens now.
	since := eng.Cycle()
	sendFlits(w1, &noc.Packet{ID: 2, NumFlits: 2}, 2)

	wi, at := waits.OldestWaiter(0)
	if wi != 1 || at != since {
		t.Fatalf("OldestWaiter = (%d, %d), want (1, %d)", wi, at, since)
	}
	if got := waits.StarvedWriters(since+10, 5); got != 1 {
		t.Errorf("StarvedWriters(+10, budget 5) = %d, want 1", got)
	}
	if got := waits.StarvedWriters(since+10, 20); got != 0 {
		t.Errorf("StarvedWriters(+10, budget 20) = %d, want 0", got)
	}
	ci := filled(ch, waits)
	if !ci.Writers[1].Waiting || ci.Writers[1].WaitingSinceCy != since {
		t.Errorf("filled writer 1 = %+v, want waiting since %d", ci.Writers[1], since)
	}
	if ci.Writers[1].HeadPkt != 2 {
		t.Errorf("filled writer 1 head packet = %d, want 2", ci.Writers[1].HeadPkt)
	}
	if ci.Writers[0].Waiting {
		t.Errorf("lock holder marked waiting: %+v", ci.Writers[0])
	}

	// Drain; the wait closes at writer 1's grant.
	eng.Run(20)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	if wi, _ := waits.OldestWaiter(0); wi != -1 {
		t.Fatalf("OldestWaiter after drain = %d, want -1", wi)
	}
	if ci = filled(ch, waits); ci.Writers[1].MaxWaitCy == 0 || ci.Writers[1].Waiting {
		t.Errorf("filled writer 1 after a contended grant = %+v, want closed wait with MaxWaitCy > 0", ci.Writers[1])
	}
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitTableReopensWaitOnBackToBackPackets(t *testing.T) {
	eng, ch, waits, w0, w1 := buildWatchedChannel()

	// Writer 1 offers two packets; after its first tail releases the
	// lock it must go straight back to waiting for re-arbitration.
	var reopened int
	ch.Tap.Subscribe(noc.Mask(noc.EvWait), func(e noc.Event) {
		if e.A == 1 {
			reopened++
		}
	})
	sendFlits(w0, &noc.Packet{ID: 1, NumFlits: 2}, 2)
	eng.Run(2)
	sendFlits(w1, &noc.Packet{ID: 2, NumFlits: 2}, 2)
	sendFlits(w1, &noc.Packet{ID: 3, NumFlits: 2}, 2)
	eng.Run(40)
	if ch.Queued() != 0 {
		t.Fatalf("channel not drained: Queued = %d", ch.Queued())
	}
	if reopened != 2 {
		t.Errorf("writer 1 opened %d waits, want 2 (first flit, then tail release with a packet queued)", reopened)
	}
	// Both of writer 1's grants closed a wait; the max covers the longer
	// (first) one, which spanned writer 0's whole packet.
	if got := filled(ch, waits).Writers[1].MaxWaitCy; got < 2 {
		t.Errorf("writer 1 MaxWaitCy = %d, want >= 2", got)
	}
}

// TestWaitTableOffByDefault: without a table nothing is tracked — the
// channel builds no EvWait/EvGrant, a nil table reports nothing, and
// introspection shows no wait state.
func TestWaitTableOffByDefault(t *testing.T) {
	ch := sbus.NewChannel("t", 1, 0, 1)
	ch.AddWriter(chanSrc{}, 0, 1, 4)
	if ch.Tap.Wants(noc.EvWait) || ch.Tap.Wants(noc.EvGrant) {
		t.Error("a bare channel wants wait/grant events")
	}
	var waits *WaitTable
	if wi, _ := waits.OldestWaiter(0); wi != -1 {
		t.Errorf("nil table OldestWaiter = %d, want -1", wi)
	}
	if waits.StarvedWriters(1000, 1) != 0 {
		t.Error("nil table StarvedWriters != 0")
	}
	ci := ch.Introspect()
	waits.Fill(0, &ci)
	if w := ci.Writers[0]; w.Waiting || w.WaitingSinceCy != 0 || w.MaxWaitCy != 0 {
		t.Errorf("untracked writer shows wait state: %+v", w)
	}
}

// TestWaitTableHotPathAllocFree proves subscribing the table adds
// bookkeeping, not allocation: all per-writer state is sized once at
// NewWaitTable and events travel by value.
func TestWaitTableHotPathAllocFree(t *testing.T) {
	var now uint64
	ch := sbus.NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(chanSrc{}, 0, 1, 8)
	rx := &chanRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	NewWaitTable([]*sbus.Channel{ch})
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
	iter() // warm the in-flight queue
	iter()
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Errorf("watched send/tick path allocates %v per packet, want 0", allocs)
	}
}
