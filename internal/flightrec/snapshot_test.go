package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
		Channels: []sbus.ChannelIntro{
			{Name: "bus0", Kind: "photonic", LockedWriter: -1},
		},
		Routers:    []RouterInfo{{ID: 0, Buffered: 2, BufHighWater: 5}},
		Packets:    []PacketInfo{{ID: 42, Src: 1, Dst: 6, CreatedAt: 4000, AgeCy: 96, Phase: "token_wait"}},
		Starved:    []StarvedInfo{{Channel: "bus0", Kind: "photonic", Writer: 1, WriterID: 11, WaitingCy: 200, TokenOwnerID: 10}},
		FrameNames: []string{"m.a", "m.b"},
		Frames:     []Frame{{Cycle: 3840, Values: []float64{1, 0}}, {Cycle: 4096, Values: []float64{2, 0.5}}},
	}
}

// TestSnapshotNDJSONFraming checks the dump contract
// obscheck.TestRecordInvariants relies on: every line is a flat JSON object tagged with "rec", and
// the first record is "meta" carrying the cycle and reason.
func TestSnapshotNDJSONFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnapshot().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	first := true
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		rec, ok := v["rec"].(string)
		if !ok {
			t.Fatalf("line missing rec tag: %q", sc.Text())
		}
		if first {
			first = false
			if rec != "meta" {
				t.Fatalf("first record is %q, want meta", rec)
			}
			if v["cycle"].(float64) != 4096 || v["reason"].(string) != "test" {
				t.Fatalf("meta record %v missing cycle/reason", v)
			}
		}
		counts[rec]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"meta": 1, "progress": 1, "engine": 1, "pools": 1,
		"channel": 1, "router": 1, "packet": 1, "starved": 1,
		"frame_names": 1, "frame": 2,
	}
	for rec, n := range want {
		if counts[rec] != n {
			t.Errorf("%d %q records, want %d", counts[rec], rec, n)
		}
	}
}

func TestSnapshotNDJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	s := testSnapshot()
	if err := s.WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same snapshot differ")
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
		"writer 1 (router 11) waiting 200 cy",
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

func TestWriteRecordRejectsNonObject(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRecord(&buf, "bad", []int{1, 2}); err == nil {
		t.Fatal("non-object payload must be rejected")
	}
	if err := writeRecord(&buf, "empty", struct{}{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"rec\":\"empty\"}\n" {
		t.Fatalf("empty payload rendered %q", got)
	}
}

func TestCollectStarvedSkipsUntrackedChannels(t *testing.T) {
	ch := sbus.NewChannel("bus0", 1, 0, 1)
	ch.AddWriter(chanSrc{}, 0, 1, 4)
	// No WaitTable subscribed: nobody is known to wait.
	if got := CollectStarved(100, []*sbus.Channel{ch}, nil); len(got) != 0 {
		t.Fatalf("untracked channel produced starved entries: %+v", got)
	}
}
