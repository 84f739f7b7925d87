package flightrec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
)

// chanRx delivers into nothing and returns the buffer credit
// immediately, like a real ejection sink.
type chanRx struct{ rx *sbus.Rx }

func (r *chanRx) ReceiveFlit(port int, f *noc.Flit) {
	if r.rx != nil {
		r.rx.ReturnCredit(f.VC)
	}
}

type chanSrc struct{}

func (chanSrc) ReceiveCredit(port, vc int) {}

func sendFlits(w *sbus.Writer, p *noc.Packet, upto int) []*noc.Flit {
	fl := noc.MakeFlits(p)
	for i := 0; i < upto && i < len(fl); i++ {
		w.Send(fl[i])
	}
	return fl
}

func TestWatchdogStallDetectorTrips(t *testing.T) {
	var snaps []string
	dog := NewWatchdog(Window)
	dog.Progress = func() Progress { return Progress{BufferedFlits: 3} } // flits stuck, no ejections ever
	dog.SnapshotFn = func(reason string) *Snapshot { return &Snapshot{Reason: reason} }
	dog.OnTrip = func(reason string, snap *Snapshot) { snaps = append(snaps, snap.Reason) }

	for cy := uint64(0); cy <= 4*Window; cy++ {
		dog.Tick(cy)
	}
	// The window at 256 is one budget without progress, not more; the
	// one at 512 is more and trips. The trip re-arms, so 768 and 1024
	// trip a second time.
	if dog.Trips() != 2 {
		t.Fatalf("Trips = %d, want 2", dog.Trips())
	}
	if !strings.Contains(dog.TripReasons()[0], "quiescence without completion") {
		t.Errorf("trip reason %q", dog.TripReasons()[0])
	}
	// Only the first trip dumps (maxDumps).
	if len(snaps) != 1 {
		t.Errorf("emitted %d dumps, want 1", len(snaps))
	}
}

func TestWatchdogStallDetectorResetsOnProgress(t *testing.T) {
	var ejected uint64
	dog := NewWatchdog(Window)
	dog.Progress = func() Progress {
		ejected++ // progress every window: never trips
		return Progress{Ejected: ejected, SrcQueued: 1, BufferedFlits: 1, ChannelQueued: 1}
	}
	for cy := uint64(0); cy <= 16*Window; cy++ {
		dog.Tick(cy)
	}
	if dog.Trips() != 0 {
		t.Fatalf("Trips = %d with steady progress, want 0", dog.Trips())
	}
}

// TestWatchdogStarvationNamesWriterAndTokenOwner is the deliberately
// starved fixture: writer 0 wedges the channel mid-packet (its tail
// never arrives), writer 1 queues a packet and waits forever. The
// watchdog must trip with a reason naming the starved writer's router
// and the token owner, and the dump's channel record must carry the
// same attribution.
func TestWatchdogStarvationNamesWriterAndTokenOwner(t *testing.T) {
	eng := sim.NewEngine()
	ch := sbus.NewChannel("bus0", 1, 0, 1)
	ch.Kind = "photonic"
	w0 := ch.AddWriter(chanSrc{}, 0, 1, 8)
	w0.SetID(10)
	w1 := ch.AddWriter(chanSrc{}, 0, 1, 8)
	w1.SetID(11)
	rx := &chanRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	ch.SetWaker(eng.RegisterWakeable(sim.PhaseDelivery, ch))

	dog := NewWatchdog(100)
	dog.Channels = []*sbus.Channel{ch}
	dog.SnapshotFn = func(reason string) *Snapshot {
		return &Snapshot{Reason: reason, Cycle: eng.Cycle(), Channels: []sbus.ChannelIntro{ch.Introspect()}}
	}
	var tripped *Snapshot
	dog.OnTrip = func(reason string, snap *Snapshot) { tripped = snap }
	eng.Register(sim.PhaseCollect, dog)

	// Writer 0: head of a 2-flit packet; the tail never arrives, so once
	// it wins the grant the wormhole lock is held forever.
	sendFlits(w0, &noc.Packet{ID: 1, NumFlits: 2}, 1)
	eng.Run(5)
	// Writer 1: a complete packet that can never win the token now.
	sendFlits(w1, &noc.Packet{ID: 2, NumFlits: 2}, 2)
	eng.Run(300)

	if dog.Trips() == 0 {
		t.Fatal("starvation watchdog never tripped")
	}
	reason := dog.TripReasons()[0]
	for _, want := range []string{
		`token starvation on photonic "bus0"`,
		"writer 1 (router 11)",
		"token at writer 0 (router 10)",
	} {
		if !strings.Contains(reason, want) {
			t.Errorf("trip reason %q missing %q", reason, want)
		}
	}
	if tripped == nil {
		t.Fatal("no trip dump emitted")
	}
	c := tripped.Channels[0]
	var waiting []sbus.WriterIntro
	for _, wr := range c.Writers {
		if wr.Waiting {
			waiting = append(waiting, wr)
		}
	}
	if len(waiting) != 1 {
		t.Fatalf("dump lists %d waiting writers, want 1: %+v", len(waiting), c.Writers)
	}
	st := waiting[0]
	if st.Index != 1 || st.ID != 11 {
		t.Errorf("starved writer = %d (router %d), want 1 (router 11)", st.Index, st.ID)
	}
	if c.Token != 0 || c.Writers[c.Token].ID != 10 {
		t.Errorf("token at writer %d (router %d), want 0 (router 10)", c.Token, c.Writers[c.Token].ID)
	}
	if c.LockedWriter != 0 || c.Writers[c.LockedWriter].ID != 10 {
		t.Errorf("lock at writer %d (router %d), want 0 (router 10)", c.LockedWriter, c.Writers[c.LockedWriter].ID)
	}
	if wait := tripped.Cycle - st.WaitingSinceCy; wait <= dog.Budget() {
		t.Errorf("starved wait %d cy, want > budget %d", wait, dog.Budget())
	}
	if st.HeadPkt != 2 {
		t.Errorf("starved head packet %d, want 2", st.HeadPkt)
	}
	var text bytes.Buffer
	if err := tripped.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("starved writers: 1\n  photonic bus0 writer 1 (router 11) waiting %d cy; token at writer 0 (router 10), lock w=0 (router 10) vc=0 head=2(0->0)\n",
		tripped.Cycle-st.WaitingSinceCy)
	if !strings.Contains(text.String(), line) {
		t.Errorf("text dump lacks %q:\n%s", line, text.String())
	}
}
