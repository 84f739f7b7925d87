package obscheck

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// readRecord returns every file of the record in dir by base name.
func readRecord(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, name := range dirFiles(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

// TestRecordInvariants checks every file of a real record against the
// invariant of its format, and the files against each other.
func TestRecordInvariants(t *testing.T) {
	dir := record(t)
	files := readRecord(t, dir)
	for name, b := range files {
		if err := checkFile(name, b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := checkAgrees(files); err != nil {
		t.Error(err)
	}
	if err := checkStarved(readDumps(t, dir)); err != nil {
		t.Error(err)
	}
}

// readDumps returns a record's dump.json and dump.txt.
func readDumps(t *testing.T, dir string) (dumpJSON, dumpText []byte) {
	t.Helper()
	dumpJSON, err := os.ReadFile(filepath.Join(dir, "dump.json"))
	if err != nil {
		t.Fatal(err)
	}
	dumpText, err = os.ReadFile(filepath.Join(dir, "dump.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return dumpJSON, dumpText
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

	// One file against the others: each corruption keeps the file's own
	// format and moves one side of an identity checkAgrees holds.
	record := readRecord(t, dir)
	if err := checkAgrees(record); err != nil {
		t.Fatalf("the uncorrupted record fails: %v", err)
	}
	for _, tc := range []struct {
		name, file, want string
		corrupt          func(string) string
	}{
		{"router stalls", "heat_congestion.csv", "congestion", setField(1, 4, "999999")},
		{"tile waits", "fair_tiles.csv", "token wait", setField(1, 7, "999999")},
		{"breakdown token_wait", "breakdown.csv", "token_wait", func(s string) string {
			return regexp.MustCompile(`(?m)^token_wait,(\d+),\d+,`).ReplaceAllString(s, "token_wait,$1,1,")
		}},
		// Off by a part in 10⁹: inside any tolerance, so only the exact
		// sum sees it.
		{"channel energy off by 1e-9", "heat_energy.csv", "wireless energy", func(s string) string {
			last := strings.LastIndex(s, ",") + 1
			v, _ := strconv.ParseFloat(strings.TrimSpace(s[last:]), 64)
			return s[:last] + strconv.FormatFloat(v*(1+1e-9), 'f', -1, 64) + "\n"
		}},
	} {
		good := record[tc.file]
		bad := tc.corrupt(string(good))
		if bad == string(good) {
			t.Fatalf("%s: the corruption changed nothing", tc.name)
		}
		record[tc.file] = []byte(bad)
		if err := checkAgrees(record); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkAgrees = %v, want an error containing %q", tc.name, err, tc.want)
		}
		record[tc.file] = good
	}

	// The text dump against the JSON one: the golden record ends with a
	// writer waiting, so its starved writers line can be miscounted or
	// name another router or wait.
	dumpJSON, dumpText := readDumps(t, dir)
	line := regexp.MustCompile(`(?m)^  \S+ \S+ writer \d+ \(router (\d+)\) waiting (\d+) cy;`)
	m := line.FindSubmatchIndex(dumpText)
	if m == nil {
		t.Fatalf("dump.txt lists no starved writer:\n%s", dumpText)
	}
	bump := func(start, end int) func(string) string {
		return func(s string) string {
			v, _ := strconv.Atoi(s[start:end])
			return s[:start] + strconv.Itoa(v+1) + s[end:]
		}
	}
	count := regexp.MustCompile(`(?m)^starved writers: (\d+)$`).FindSubmatchIndex(dumpText)
	for _, tc := range []struct {
		name, want string
		corrupt    func(string) string
	}{
		{"starved count", "waiting writers", bump(count[2], count[3])},
		{"starved router", "names", bump(m[2], m[3])},
		{"starved wait", "names", bump(m[4], m[5])},
	} {
		if err := checkStarved(dumpJSON, []byte(tc.corrupt(string(dumpText)))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkStarved = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
