package obscheck

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// parseFlags registers the shared observability flags the way a CLI
// does and parses args.
func parseFlags(t *testing.T, args ...string) *obs.Flags {
	t.Helper()
	f := new(obs.Flags)
	fs := flag.NewFlagSet("obscheck", flag.ContinueOnError)
	f.Register(fs, "the run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// golden is the golden OWN-256 configuration every record here is of.
func golden() (core.System, *fabric.Network, fabric.TrafficSpec, fabric.RunSpec) {
	sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	return sys, sys.Build(power.NewMeter(nil)),
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 1, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 200, Measure: 800}
}

// dirFiles returns the base names in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// record writes the record of the golden OWN-256 run into a fresh
// directory the way cmd/ownsim does, run summary included, and returns
// the directory.
func record(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	f := parseFlags(t, "-out", dir)
	man, err := f.OpenRecord("obs-test", 256, 1, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	_, n, ts, rs := golden()
	s, err := obs.Start(n, f, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sum := n.Run(ts, rs).Summary
	man.Summary = &sum
	s.Finish()
	if v := s.Violations(); v != 0 {
		t.Fatalf("%d invariant violations on a golden configuration", v)
	}
	if err := s.Emit(man, io.Discard); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecordInvariants checks every file of a real record against the
// invariant of its format.
func TestRecordInvariants(t *testing.T) {
	dir := record(t)
	for _, name := range dirFiles(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFile(name, b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRecordCorruptionsFail seeds one corruption per invariant into the
// bytes a real record holds and requires checkFile to reject each, with
// the error naming what broke.
func TestRecordCorruptionsFail(t *testing.T) {
	dir := record(t)
	// setField rewrites column col of data row row (1 = first data row).
	setField := func(row, col int, v string) func(string) string {
		return func(s string) string {
			lines := strings.Split(s, "\n")
			f := strings.Split(lines[row], ",")
			f[col] = v
			lines[row] = strings.Join(f, ",")
			return strings.Join(lines, "\n")
		}
	}
	jain := func(v string) func(string) string { return setField(1, 5, v) }
	for _, tc := range []struct {
		name, file, want string
		corrupt          func(string) string
	}{
		{"energy sum", "energy.csv", "sum", setField(1, 2, "999999")},
		{"energy total not last", "energy.csv", "total", func(s string) string {
			lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
			n := len(lines)
			lines[n-1], lines[n-2] = lines[n-2], lines[n-1]
			return strings.Join(lines, "\n") + "\n"
		}},
		{"breakdown identity", "breakdown.csv", "sum", setField(2, 2, "1")},
		{"jain 0", "fair_jain.csv", "outside (0,1]", jain("0")},
		{"jain -0.5", "fair_jain.csv", "outside (0,1]", jain("-0.5")},
		{"jain 1.5", "fair_jain.csv", "outside (0,1]", jain("1.5")},
		{"jain NaN", "fair_jain.csv", "outside (0,1]", jain("NaN")},
		{"jain not a number", "fair_jain.csv", "bad jain_index", jain("bogus")},
		{"ragged CSV", "metrics.csv", "wrong number of fields", setField(2, 1, "1,2")},
		{"CSV without rows", "fair_tiles.csv", "no data rows", func(s string) string { return strings.SplitAfter(s, "\n")[0] }},
		{"dump without cycle", "dump.json", "cycle", func(s string) string {
			return regexp.MustCompile(`"cycle":\d+,`).ReplaceAllString(s, "")
		}},
		{"dump without reason", "dump.json", "reason", func(s string) string {
			return strings.Replace(s, `"reason":"exit"`, `"reason":""`, 1)
		}},
		{"dump member Snapshot does not name", "dump.json", "unknown field", func(s string) string {
			return strings.Replace(s, "{", `{"rec":"meta",`, 1)
		}},
		{"dump not JSON", "dump.json", "invalid JSON", func(s string) string { return "not json\n" + s }},
		{"p50 and max swapped", "manifest.json", "out of order", func(s string) string {
			p50 := regexp.MustCompile(`"P50Latency": \d+`).FindString(s)
			maxLat := regexp.MustCompile(`"MaxLatency": \d+`).FindString(s)
			value := func(field string) string { return field[strings.Index(field, ":"):] }
			return strings.NewReplacer(p50, `"P50Latency"`+value(maxLat), maxLat, `"MaxLatency"`+value(p50)).Replace(s)
		}},
		{"wrong SVG root", "breakdown.svg", "root", func(s string) string {
			return strings.Replace(strings.Replace(s, "<svg", "<html", 1), "</svg>", "</html>", 1)
		}},
		{"unclosed SVG", "fair_heatmap.svg", "invalid XML", func(s string) string { return strings.Replace(s, "</svg>", "", 1) }},
		{"truncated JSON", "trace.json", "invalid JSON", func(s string) string { return s[:len(s)/2] }},
		{"empty file", "heat_congestion.csv", "empty", func(string) string { return "" }},
	} {
		b, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFile(tc.file, b); err != nil {
			t.Fatalf("%s: the uncorrupted file fails: %v", tc.file, err)
		}
		bad := tc.corrupt(string(b))
		if bad == string(b) {
			t.Fatalf("%s: the corruption changed nothing", tc.name)
		}
		if err := checkFile(tc.file, []byte(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkFile(%s) = %v, want an error containing %q", tc.name, tc.file, err, tc.want)
		}
	}
}

// TestLiveRecordedRun is the live run of a record: -out with -listen. At
// the first sample the sampler hook scrapes /metrics, which
// serves the snapshot just published and must carry the engine and pool
// series, and requests /debug/dump, which the watchdog renders on the
// simulation goroutine; a pprof endpoint, which -listen alone mounts, is
// read after the run. The record itself equals the record of the same run
// without a server.
func TestLiveRecordedRun(t *testing.T) {
	dir := t.TempDir()
	f := parseFlags(t, "-out", dir, "-listen", "127.0.0.1:0")
	man, err := f.OpenRecord("obs-test", 256, 1, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	_, n, ts, rs := golden()
	var base string
	s, err := obs.Start(n, f, func(format string, args ...any) {
		if _, err := fmt.Sscanf(fmt.Sprintf(format, args...), "live telemetry on http://%s", &base); err != nil {
			t.Errorf("unexpected session diagnostic: "+format, args...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base = "http://" + strings.TrimSuffix(base, "/metrics")

	type reply struct {
		body []byte
		err  error
	}
	get := func(url string) reply {
		resp, err := http.Get(url)
		if err != nil {
			return reply{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		return reply{body, err}
	}
	var scrape reply
	var sampled uint64
	dump := make(chan reply, 1)
	smp := n.Probe.Sampler()
	publish := smp.OnSample
	smp.OnSample = func(cycle uint64, values []float64) {
		publish(cycle, values)
		if sampled != 0 || cycle == 0 {
			return
		}
		sampled = cycle
		// /metrics reads only the published snapshot, so the simulation
		// goroutine may wait for it; /debug/dump needs that goroutine to
		// tick, so it is requested from another one.
		scrape = get(base + "/metrics")
		go func() { dump <- get(base + "/debug/dump") }()
	}
	sum := n.Run(ts, rs).Summary
	man.Summary = &sum
	s.Finish()

	if scrape.err != nil {
		t.Fatal(scrape.err)
	}
	if _, err := checkProm(scrape.body, "ownsim_engine_compute_ticks", "ownsim_pool_gets"); err != nil {
		t.Errorf("/metrics at cycle %d: %v", sampled, err)
	}
	if !strings.Contains(string(scrape.body), fmt.Sprintf("ownsim_cycle %d\n", sampled)) {
		t.Errorf("/metrics does not serve the sample of cycle %d", sampled)
	}
	d := <-dump
	if d.err != nil {
		t.Fatal(d.err)
	}
	if err := checkDump(d.body); err != nil || !bytes.HasPrefix(d.body, []byte(`{"reason":"request",`)) {
		t.Errorf("/debug/dump requested at cycle %d: %v\n%.200s", sampled, err, d.body)
	}
	if prof := get(base + "/debug/pprof/heap"); prof.err != nil || len(prof.body) == 0 {
		t.Errorf("/debug/pprof/heap: %d bytes, %v", len(prof.body), prof.err)
	}

	if err := s.Emit(man, io.Discard); err != nil {
		t.Fatal(err)
	}
	quiet := record(t)
	names := dirFiles(t, quiet)
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, names) {
		t.Errorf("the live record holds %v, the quiet one %v", got, names)
	}
	for _, name := range names {
		a, errA := os.ReadFile(filepath.Join(dir, name))
		b, errB := os.ReadFile(filepath.Join(quiet, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs with the live plane on (%v, %v)", name, errA, errB)
		}
	}
}
