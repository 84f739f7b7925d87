package flightrec

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/probe"
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

func testSnapshot() *Snapshot {
	return &Snapshot{
		Reason:   "test",
		Cycle:    4096,
		Net:      "own-mini",
		Cores:    8,
		Tiles:    2,
		Progress: Progress{Generated: 10, Injected: 9, Ejected: 7, BufferedFlits: 3},
		Engine:   probe.EngineIntro{Cycles: 4096},
		Channels: []sbus.ChannelIntro{{
			Name: "bus0", Kind: "photonic", LockedWriter: -1,
			Writers: []sbus.WriterIntro{
				{Index: 0, ID: 10},
				{Index: 1, ID: 11, Queued: 2, Waiting: true, WaitingSinceCy: 3896, HeadPkt: 42, HeadSrc: 1, HeadDst: 6},
			},
		}},
		Routers: []RouterInfo{{ID: 0, Buffered: 2, BufHighWater: 5}},
		Packets: []PacketInfo{{ID: 42, Src: 1, Dst: 6, CreatedAt: 4000, AgeCy: 96, Phase: "token_wait"}},
	}
}

// TestSnapshotJSONRoundTrip checks the dump contract
// obscheck.TestRecordInvariants relies on: the document is the snapshot's
// own JSON, so it decodes back into an equal Snapshot, and it carries the
// cycle and reason as top-level members.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := testSnapshot()
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("dump does not decode into a Snapshot: %v\n%s", err, buf.Bytes())
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", &got, want)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &members); err != nil {
		t.Fatal(err)
	}
	if string(members["cycle"]) != "4096" || string(members["reason"]) != `"test"` {
		t.Fatalf("top-level cycle/reason = %s/%s", members["cycle"], members["reason"])
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	s := testSnapshot()
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same snapshot differ")
	}
}

// countingWriter counts the Write calls it sees and fails them with err.
type countingWriter struct {
	writes int
	err    error
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), w.err
}

// TestSnapshotJSONIsOneWrite: the document reaches the writer in one
// Write, and a failing writer's error is the dump's.
func TestSnapshotJSONIsOneWrite(t *testing.T) {
	w := &countingWriter{}
	if err := testSnapshot().WriteJSON(w); err != nil || w.writes != 1 {
		t.Fatalf("WriteJSON: err %v, %d writes, want nil and 1", err, w.writes)
	}
	broken := errors.New("disk full")
	w = &countingWriter{err: broken}
	if err := testSnapshot().WriteJSON(w); !errors.Is(err, broken) || w.writes != 1 {
		t.Fatalf("WriteJSON to a failing writer: err %v, %d writes, want %v and 1", err, w.writes, broken)
	}
}

// TestSnapshotOfUnclockedChannelListsNoStarved: a channel without a
// waker has no clock to time a token wait by, so a dump lists no writer
// as waiting even with flits queued behind the token.
func TestSnapshotOfUnclockedChannelListsNoStarved(t *testing.T) {
	ch := sbus.NewChannel("bus0", 1, 0, 1)
	w := ch.AddWriter(chanSrc{}, 0, 1, 4)
	sendFlits(w, &noc.Packet{ID: 1, NumFlits: 2}, 2)
	snap := &Snapshot{Reason: "test", Cycle: 100, Channels: []sbus.ChannelIntro{ch.Introspect()}}
	c := snap.Channels[0]
	if c.Writers[0].Queued == 0 {
		t.Fatal("fixture queued no flits")
	}
	for _, wr := range c.Writers {
		if wr.Waiting {
			t.Fatalf("untracked channel lists a waiting writer: %+v", wr)
		}
	}
}

// TestSnapshotNamesStarvedWriterAndTokenOwner is the deliberately
// starved fixture: writer 0 wedges the channel mid-packet (its tail
// never arrives), writer 1 queues a packet and waits forever. The dump's
// channel record, as dump.json carries it, must name the starved
// writer's router, the token owner's and the lock holder's, and the
// wait length.
func TestSnapshotNamesStarvedWriterAndTokenOwner(t *testing.T) {
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

	// Writer 0: head of a 2-flit packet; the tail never arrives, so once
	// it wins the grant the wormhole lock is held forever.
	sendFlits(w0, &noc.Packet{ID: 1, NumFlits: 2}, 1)
	eng.Run(5)
	// Writer 1: a complete packet that can never win the token now.
	since := eng.Cycle()
	sendFlits(w1, &noc.Packet{ID: 2, NumFlits: 2}, 2)
	eng.Run(300)

	var buf bytes.Buffer
	if err := (&Snapshot{Reason: "test", Cycle: eng.Cycle(), Channels: []sbus.ChannelIntro{ch.Introspect()}}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Channels[0]
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
	if st.Index != 1 || st.ID != 11 || st.WaitingSinceCy != since || st.HeadPkt != 2 {
		t.Errorf("starved writer = %+v, want writer 1 (router 11) waiting since %d with packet 2 at its head", st, since)
	}
	if c.Token != 0 || c.Writers[c.Token].ID != 10 {
		t.Errorf("token at writer %d (router %d), want 0 (router 10)", c.Token, c.Writers[c.Token].ID)
	}
	if c.LockedWriter != 0 || c.Writers[c.LockedWriter].ID != 10 {
		t.Errorf("lock at writer %d (router %d), want 0 (router 10)", c.LockedWriter, c.Writers[c.LockedWriter].ID)
	}
	if wait := snap.Cycle - st.WaitingSinceCy; wait != eng.Cycle()-since || wait < 200 {
		t.Errorf("wait = %d cy, want %d (at least the 200 cycles run since the packet queued)", wait, eng.Cycle()-since)
	}
}
