package obscheck

import (
	"bytes"
	"strings"
	"testing"

	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
)

// jainCSV renders a real Jain artifact through the stall tracker so the
// validator is exercised against the emitter's actual bytes.
func jainCSV(t *testing.T) []byte {
	t.Helper()
	st := flightrec.NewStallTracker(4)
	ch := st.AddChannel("bus0", "photonic")
	st.AddChannel("wl A", "wireless")
	st.Observe(ch, 0, 10)
	st.Observe(ch, 1, 12)
	st.Observe(ch, 2, 200)
	var buf bytes.Buffer
	if err := st.WriteTileCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := st.WriteJainCSV(&buf); err != nil {
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
	header := strings.Join(flightrec.FairnessJainCSVHeader, ",")
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
