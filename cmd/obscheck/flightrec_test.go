package obscheck

import (
	"bytes"
	"strings"
	"testing"

	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/obs"
	"ownsim/internal/probe"
	"ownsim/internal/sbus"
)

// jainCSV renders a real Jain artifact through obs.WriteJainCSV, over
// a token ledger booked through the span tracker, so the validator is
// exercised against the emitter's actual bytes.
func jainCSV(t *testing.T) []byte {
	t.Helper()
	sp := probe.New(probe.Options{Spans: true}).Spans()
	sp.SizeTokenLedger(2, 4, 1)
	for src, wait := range []uint64{10, 12, 200} {
		p := &noc.Packet{ID: uint64(src + 1), Src: src, Measure: true, NumFlits: 1}
		sp.Enqueue(p, 0)
		sp.ChannelTx(wait, noc.MakeFlits(p)[0], probe.ChannelHop{Ledger: 0})
	}
	chans := []*sbus.Channel{{Name: "bus0", Kind: "photonic"}, {Name: "wl A", Kind: "wireless"}}
	var buf bytes.Buffer
	if err := obs.WriteJainCSV(&buf, chans, sp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckCSVAcceptsRealJainArtifact(t *testing.T) {
	rows, err := checkCSV(jainCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2", rows)
	}
}

func TestCheckJainCSVEnforcesBound(t *testing.T) {
	header := strings.Join(obs.FairnessJainCSVHeader, ",")
	for _, bad := range []string{"0", "-0.5", "1.5", "NaN", "bogus"} {
		csv := header + "\nbus0,photonic,2,2,8," + bad + "\n"
		if _, err := checkCSV([]byte(csv)); err == nil {
			t.Errorf("jain_index %q accepted, want error", bad)
		}
	}
	// The boundary values themselves are legal.
	csv := header + "\nbus0,photonic,2,2,8,1\nbus1,photonic,3,4,9,0.25\n"
	if _, err := checkCSV([]byte(csv)); err != nil {
		t.Errorf("legal jain rows rejected: %v", err)
	}
}

func TestCheckDumpAcceptsRealDump(t *testing.T) {
	snap := &flightrec.Snapshot{
		Reason:     "exit",
		Cycle:      3000,
		Net:        "own-mini",
		Engine:     probe.EngineIntro{Cycles: 3000},
		Frames:     []flightrec.Frame{{Cycle: 2816, Values: []float64{1}}},
		FrameNames: []string{"m.a"},
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkFile("dump.json", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDumpRequiresCycleAndReason(t *testing.T) {
	for _, tc := range []struct{ dump, want string }{
		{`{"reason":"exit"}`, "cycle"},
		{`{"reason":"","cycle":5}`, "reason"},
		{`{"cycle":5}`, "reason"},
		{`{"rec":"meta","reason":"exit","cycle":5}`, "unknown field"},
		{`[{"reason":"exit","cycle":5}]`, "not a JSON object"},
	} {
		if err := checkFile("dump.json", []byte(tc.dump)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkFile(dump.json, %s) = %v, want an error containing %q", tc.dump, err, tc.want)
		}
	}
	// The dump rules engage on the dump only: other JSON files need only
	// parse.
	if err := checkFile("trace.json", []byte(`{"reason":""}`)); err != nil {
		t.Errorf("plain JSON rejected: %v", err)
	}
}
