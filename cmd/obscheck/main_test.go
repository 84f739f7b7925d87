package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ownsim/internal/power"
)

// energyRecs renders a real meter's energy CSV and parses it back into
// records via checkCSV's own reader path.
func energyCSV(t *testing.T) []byte {
	t.Helper()
	m := power.NewMeter(nil)
	m.RegisterRouter(5, 2)
	m.BufWrite()
	m.ReadRouter(5, func() (grants, vcAllocs uint64) { return 1, 1 })
	flits := uint64(1)
	m.ReadWireless(0, "C2C", 1.0, 0, &flits)
	var buf bytes.Buffer
	if err := m.WriteEnergyCSV(&buf, 500); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckCSVAcceptsRealEnergyArtifact(t *testing.T) {
	rows, err := checkCSV(energyCSV(t))
	if err != nil {
		t.Fatalf("real energy CSV rejected: %v", err)
	}
	if rows < 3 {
		t.Fatalf("only %d rows", rows)
	}
}

func TestCheckEnergyCSVCatchesSumMismatch(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(string(energyCSV(t))), "\n")
	// Corrupt the first component row's energy_pj (column 2).
	f := strings.Split(lines[1], ",")
	f[2] = "999999"
	lines[1] = strings.Join(f, ",")
	_, err := checkCSV([]byte(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("corrupted energy CSV passed (err = %v)", err)
	}
}

func TestCheckEnergyCSVRequiresTotalLast(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(string(energyCSV(t))), "\n")
	// Move the total row before the last component row.
	n := len(lines)
	lines[n-1], lines[n-2] = lines[n-2], lines[n-1]
	_, err := checkCSV([]byte(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "total") {
		t.Fatalf("reordered energy CSV passed (err = %v)", err)
	}
}

func TestCheckCSVPlainTableStillPasses(t *testing.T) {
	if _, err := checkCSV([]byte("a,b\n1,2\n3,4\n")); err != nil {
		t.Fatalf("plain CSV rejected: %v", err)
	}
	if _, err := checkCSV([]byte("a,b\n1\n")); err == nil {
		t.Fatal("ragged CSV accepted")
	}
}

func TestCheckSVG(t *testing.T) {
	good := []byte(`<svg xmlns="http://www.w3.org/2000/svg"><rect/><text>x</text></svg>`)
	n, err := checkSVG(good)
	if err != nil || n != 3 {
		t.Fatalf("good SVG: n=%d err=%v", n, err)
	}
	if _, err := checkSVG([]byte(`<svg><rect></svg>`)); err == nil {
		t.Fatal("unclosed element accepted")
	}
	if _, err := checkSVG([]byte(`<html></html>`)); err == nil || !strings.Contains(err.Error(), "root") {
		t.Fatalf("wrong root accepted (err = %v)", err)
	}
}

func TestCheckProm(t *testing.T) {
	good := []byte("# HELP ownsim_cycle Current cycle.\n# TYPE ownsim_cycle gauge\nownsim_cycle 512\nownsim_running 1\n")
	n, err := checkProm(good)
	if err != nil || n != 2 {
		t.Fatalf("good exposition: n=%d err=%v", n, err)
	}
	for name, bad := range map[string]string{
		"bad comment":   "# NOPE ownsim_cycle x\n",
		"bad name":      "9cycle 1\n",
		"bad value":     "ownsim_cycle twelve\n",
		"missing value": "ownsim_cycle\n",
		"no samples":    "# HELP ownsim_cycle c.\n",
	} {
		if _, err := checkProm([]byte(bad)); err == nil {
			t.Fatalf("%s accepted: %q", name, bad)
		}
	}
}

func TestValidPromName(t *testing.T) {
	for _, ok := range []string{"ownsim_cycle", "a:b_c9", "_x"} {
		if !validPromName(ok) {
			t.Fatalf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a.b", "a b"} {
		if validPromName(bad) {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestCheckFilesEvaluatesEveryArtifact is the regression test for the
// exit-status bug where a failure aborted the run at the first bad
// file: with one failing artifact listed before a passing one,
// checkFiles must still validate (and report) the passing file, count
// exactly one failure, and do the same with the order reversed.
func TestCheckFilesEvaluatesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"cycle": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"cycle": `), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{{bad, good}, {good, bad}} {
		var out, errw bytes.Buffer
		failed := checkFiles(order, &out, &errw)
		if failed != 1 {
			t.Fatalf("order %v: %d failures, want 1", order, failed)
		}
		if !strings.Contains(out.String(), "ok "+good) {
			t.Fatalf("order %v: passing file never validated (stdout %q)", order, out.String())
		}
		if !strings.Contains(errw.String(), "FAIL "+bad) {
			t.Fatalf("order %v: failing file not reported (stderr %q)", order, errw.String())
		}
	}

	// All files failing counts each one.
	var out, errw bytes.Buffer
	if failed := checkFiles([]string{bad, bad}, &out, &errw); failed != 2 {
		t.Fatalf("two bad files: %d failures, want 2", failed)
	}
	// All passing counts none.
	if failed := checkFiles([]string{good, good}, &out, &errw); failed != 0 {
		t.Fatalf("two good files: %d failures, want 0", failed)
	}
}

func TestCheckNDJSON(t *testing.T) {
	n, err := checkNDJSON([]byte("{\"cycle\":1}\n{\"cycle\":2}\n"))
	if err != nil || n != 2 {
		t.Fatalf("good NDJSON: n=%d err=%v", n, err)
	}
	if _, err := checkNDJSON([]byte("not json\n")); err == nil {
		t.Fatal("invalid NDJSON accepted")
	}
}
