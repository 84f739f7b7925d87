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

func TestCheckNDJSONAcceptsRealDump(t *testing.T) {
	snap := &flightrec.Snapshot{
		Reason:     "exit",
		Cycle:      3000,
		Net:        "own-mini",
		Engine:     probe.EngineIntro{Cycles: 3000},
		Starved:    nil,
		Frames:     []flightrec.Frame{{Cycle: 2816, Values: []float64{1}}},
		FrameNames: []string{"m.a"},
	}
	var buf bytes.Buffer
	if err := snap.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := checkNDJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("dump validated only %d records", n)
	}
}

func TestCheckNDJSONDumpFraming(t *testing.T) {
	// A dump line without a rec tag after the meta record is a framing
	// violation.
	bad := "{\"rec\":\"meta\",\"cycle\":5,\"reason\":\"exit\",\"watchdog_trips\":0}\n{\"cycle\":6}\n"
	if _, err := checkNDJSON([]byte(bad)); err == nil {
		t.Error("untagged dump line accepted")
	}
	// Meta records must carry a cycle and a non-empty reason.
	if _, err := checkNDJSON([]byte("{\"rec\":\"meta\",\"reason\":\"exit\"}\n")); err == nil {
		t.Error("meta without cycle accepted")
	}
	if _, err := checkNDJSON([]byte("{\"rec\":\"meta\",\"cycle\":5,\"reason\":\"\"}\n")); err == nil {
		t.Error("meta with empty reason accepted")
	}
	// Plain sampler NDJSON (no meta record) stays valid: dump rules only
	// engage on dumps.
	if _, err := checkNDJSON([]byte("{\"cycle\":1}\n{\"cycle\":2}\n")); err != nil {
		t.Errorf("plain NDJSON rejected: %v", err)
	}
}
