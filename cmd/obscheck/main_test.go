package obscheck

import (
	"bytes"
	"strings"
	"testing"

	"ownsim/internal/power"
)

// energyCSV renders a real meter's energy CSV.
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
