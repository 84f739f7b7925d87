package flightrec

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/probe"
	"ownsim/internal/sbus"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		Reason:      "test",
		Cycle:       4096,
		Net:         "own-mini",
		Cores:       8,
		Tiles:       2,
		Trips:       1,
		TripReasons: []string{"token starvation on photonic \"bus0\""},
		Progress:    Progress{Generated: 10, Injected: 9, Ejected: 7, BufferedFlits: 3},
		Engine:      probe.EngineIntro{Cycles: 4096},
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
		"watchdog: trips=1",
		"trip: token starvation",
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
