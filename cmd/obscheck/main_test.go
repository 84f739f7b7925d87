package obscheck

import (
	"bytes"
	"strings"
	"testing"

	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
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

// TestCheckProm checks a hand-written exposition, then seeds malformed
// lines into the bytes the live server renders.
func TestCheckProm(t *testing.T) {
	good := []byte("# HELP ownsim_cycle Current cycle.\n# TYPE ownsim_cycle gauge\nownsim_cycle 512\nownsim_running 1\n")
	n, err := checkProm(good)
	if err != nil || n != 2 {
		t.Fatalf("good exposition: n=%d err=%v", n, err)
	}

	p := probe.New(probe.Options{MetricsEvery: 16})
	p.Registry().CounterFunc("net.sa_grants", func() uint64 { return 42 })
	p.Registry().Gauge("net.buffered_flits", func() float64 { return 3 })
	s := obs.New()
	s.Attach(p)
	s.Publish(512, []float64{42, 3})
	rendered := s.PrometheusText()
	if _, err := checkProm([]byte(rendered), "ownsim_net_sa_grants", "ownsim_cycle"); err != nil {
		t.Fatalf("real exposition rejected: %v\n%s", err, rendered)
	}
	for name, bad := range map[string]string{
		"bad comment":      rendered + "# NOPE ownsim_cycle x\n",
		"bad name":         rendered + "9cycle 1\n",
		"bad value":        rendered + "ownsim_cycle twelve\n",
		"missing value":    rendered + "ownsim_cycle\n",
		"no samples":       "# HELP ownsim_cycle c.\n",
		"required is zero": strings.Replace(rendered, "ownsim_net_sa_grants 42", "ownsim_net_sa_grants 0", 1),
	} {
		if bad == rendered {
			t.Fatalf("%s: the corruption changed nothing", name)
		}
		if _, err := checkProm([]byte(bad), "ownsim_net_sa_grants"); err == nil {
			t.Errorf("%s accepted:\n%s", name, bad)
		}
	}
}

// TestValidPromName pins the metric-name alphabet checkProm accepts.
func TestValidPromName(t *testing.T) {
	for _, ok := range []string{"ownsim_cycle", "a:b_c9", "_x"} {
		if _, err := checkProm([]byte(ok + " 1\n")); err != nil {
			t.Fatalf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a.b", "a b"} {
		if _, err := checkProm([]byte(bad + " 1\n")); err == nil {
			t.Fatalf("%q accepted", bad)
		}
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
