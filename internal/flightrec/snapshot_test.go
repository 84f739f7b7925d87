package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
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
		Routers:    []RouterInfo{{ID: 0, Buffered: 2, BufHighWater: 5}},
		Packets:    []PacketInfo{{ID: 42, Src: 1, Dst: 6, CreatedAt: 4000, AgeCy: 96, Phase: "token_wait"}},
		FrameNames: []string{"m.a", "m.b"},
		Frames:     []Frame{{Cycle: 3840, Values: []float64{1, 0}}, {Cycle: 4096, Values: []float64{2, 0.5}}},
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

// TestSnapshotJSONRejectsNaN: a metric that does not marshal fails the
// dump and writes nothing.
func TestSnapshotJSONRejectsNaN(t *testing.T) {
	s := testSnapshot()
	s.Frames[0].Values[0] = math.NaN()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("NaN frame: err %v, %d bytes written", err, buf.Len())
	}
}

func TestSnapshotWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"=== flight recorder dump: test @ cycle 4096 ===",
		"net=own-mini cores=8 tiles=2",
		"photonic.bus0",
		"starved writers: 1",
		"  photonic bus0 writer 1 (router 11) waiting 200 cy; token at writer 0 (router 10), lock w=-1 (router -1) vc=0 head=42(1->6)\n",
		"flight recorder tail: 2 frames x 2 metrics",
		"m.a=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	// Zero metric values are elided from frame lines.
	if strings.Contains(out, "m.b=0 ") || strings.Contains(out, "m.b=0\n") {
		t.Error("text dump prints zero-valued frame metrics")
	}
}

// TestSnapshotOfUnclockedChannelListsNoStarved: a channel without a
// waker has no clock to time a token wait by, so a dump lists no starved
// writer even with flits queued behind the token.
func TestSnapshotOfUnclockedChannelListsNoStarved(t *testing.T) {
	ch := sbus.NewChannel("bus0", 1, 0, 1)
	w := ch.AddWriter(chanSrc{}, 0, 1, 4)
	sendFlits(w, &noc.Packet{ID: 1, NumFlits: 2}, 2)
	snap := &Snapshot{Reason: "test", Cycle: 100, Channels: []sbus.ChannelIntro{ch.Introspect()}}
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "starved writers: 0\n") {
		t.Fatalf("untracked channel produced starved entries:\n%s", buf.String())
	}
}

// TestSnapshotNamesStarvedWriterAndTokenOwner is the deliberately
// starved fixture: writer 0 wedges the channel mid-packet (its tail
// never arrives), writer 1 queues a packet and waits forever. The dump's
// channel record and its text view must name the starved writer's
// router, the token owner's and the lock holder's, and the wait length.
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

	snap := &Snapshot{Reason: "test", Cycle: eng.Cycle(), Channels: []sbus.ChannelIntro{ch.Introspect()}}
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
	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("starved writers: 1\n  photonic bus0 writer 1 (router 11) waiting %d cy; token at writer 0 (router 10), lock w=0 (router 10) vc=0 head=2(0->0)\n",
		snap.Cycle-since)
	if !strings.Contains(text.String(), line) {
		t.Errorf("text dump lacks %q:\n%s", line, text.String())
	}
}
