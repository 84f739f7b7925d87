package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// observed is one finished observed run of OWN-256.
type observed struct {
	n      *fabric.Network
	man    *probe.Manifest
	report string
	err    error // Emit's verdict
}

// observe drives a session the way both CLIs do: build, Start, Run,
// Finish, Emit into a fresh manifest, Close.
func observe(t *testing.T, f *Flags, rate float64, seed uint64) observed {
	t.Helper()
	sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	s, err := Start(n, f, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 200, Measure: 800, ReservoirCap: f.Reservoir},
	)
	s.Finish()
	if v := s.Violations(); v != 0 {
		t.Fatalf("%d invariant violations on a golden configuration", v)
	}
	o := observed{n: n, man: &probe.Manifest{Tool: "obs-test"}}
	var out bytes.Buffer
	o.err = s.Emit(o.man, &out)
	o.report = out.String()
	return o
}

// allArtifacts requests every artifact group plus the DOT graph under dir.
func allArtifacts(dir string) []string {
	return []string{
		"-metrics", filepath.Join(dir, "m.csv"), "-trace", filepath.Join(dir, "t.json"), "-sample", "4",
		"-energy", filepath.Join(dir, "e.csv"), "-heatmap", filepath.Join(dir, "hm"),
		"-latency-breakdown", filepath.Join(dir, "bd"), "-fairness", filepath.Join(dir, "fair"),
		"-dump-on-exit", filepath.Join(dir, "dump"), "-dot", filepath.Join(dir, "t.dot"),
	}
}

// parseFlags registers the shared flags the way a CLI does and parses args.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	f := new(Flags)
	fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
	f.Register(fs, "the run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
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

// TestRegisterDeclaresTheSharedFlags is the proof no knob moved: exactly
// the 16 shared names, with the defaults both CLIs always had.
func TestRegisterDeclaresTheSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
	new(Flags).Register(fs, "the run")
	want := map[string]string{
		"telemetry": "0", "dot": "", "metrics": "", "trace": "", "sample": "1", "window": "256",
		"manifest": "", "listen": "", "energy": "", "heatmap": "", "latency-breakdown": "",
		"pprof": "false", "reservoir": "0", "fairness": "", "dump-on-exit": "", "check": "false",
	}
	got := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared flags and defaults:\n got %v\nwant %v", got, want)
	}
}

// TestValidate pins the rules both CLIs now apply identically.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" = valid
	}{
		{nil, ""},
		{[]string{"-listen", ":0", "-pprof"}, ""},
		{[]string{"-sample", "0"}, "-sample"},
		{[]string{"-window", "0"}, "-window"},
		{[]string{"-pprof"}, "-listen"},
	} {
		err := parseFlags(t, tc.args...).Validate()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("Validate(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestSweepRerunMatchesOwnsimRun is the property the two hand-copied
// blocks only promised: sweep's observed re-run of its top point and
// `ownsim -load loads[last] -seed seed+last` leave byte-identical files
// in every artifact group. The sweep side drops -check for the re-run as
// cmd/sweep does, the ownsim side carries the -watchdog-every default only
// ownsim registers. (An ownsim -check run is not part of the property:
// the checker's always-on collect-phase ticker shows in the engine.*
// scheduler counters of the metrics, dump and manifest.)
func TestSweepRerunMatchesOwnsimRun(t *testing.T) {
	loads := core.SweepLoads(256, 3)
	last := len(loads) - 1
	const seed = 5

	sweepDir, ownsimDir := t.TempDir(), t.TempDir()
	rerun := *parseFlags(t, append(allArtifacts(sweepDir), "-check")...)
	rerun.Check = false
	sw := observe(t, &rerun, loads[last], seed+uint64(last))

	of := parseFlags(t, allArtifacts(ownsimDir)...)
	of.Watchdog.CheckEveryCy = flightrec.DefaultCheckEveryCy
	ow := observe(t, of, loads[last], seed+uint64(last))

	if sw.err != nil || ow.err != nil {
		t.Fatalf("Emit: sweep %v, ownsim %v", sw.err, ow.err)
	}
	names := dirFiles(t, sweepDir)
	if got := dirFiles(t, ownsimDir); !reflect.DeepEqual(got, names) || len(names) != 16 {
		t.Fatalf("file sets differ or are incomplete:\n sweep  %v\n ownsim %v", names, got)
	}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(sweepDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(ownsimDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the sweep re-run and the ownsim run", name)
		}
	}
	for i, a := range sw.man.Artifacts {
		b := ow.man.Artifacts[i]
		if a.Name != b.Name || a.Bytes != b.Bytes || a.FNV64a != b.FNV64a {
			t.Errorf("manifest artifact %d: sweep %+v, ownsim %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(sw.man.Engine, ow.man.Engine) || !reflect.DeepEqual(sw.man.Pools, ow.man.Pools) {
		t.Error("engine/pool introspection differs between the two runs")
	}
}

// TestArtifactGroupFiles is the flag → files table README documents:
// each flag alone leaves exactly its files, and all together digest into
// the manifest in the table's fixed order.
func TestArtifactGroupFiles(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		files       []string
	}{
		{"-metrics", "m.ndjson", []string{"m.ndjson"}},
		{"-trace", "t.json", []string{"t.json"}},
		{"-energy", "e.csv", []string{"e.csv"}},
		{"-heatmap", "hm", []string{"hm_congestion.csv", "hm_congestion.svg", "hm_energy.csv", "hm_energy.svg"}},
		{"-latency-breakdown", "bd", []string{"bd.csv", "bd.ndjson", "bd.svg"}},
		{"-fairness", "fair", []string{"fair_heatmap.svg", "fair_jain.csv", "fair_tiles.csv"}},
		{"-dump-on-exit", "dump", []string{"dump.ndjson", "dump.txt"}},
		{"-dot", "t.dot", []string{"t.dot"}},
	} {
		dir := t.TempDir()
		o := observe(t, parseFlags(t, tc.flag, filepath.Join(dir, tc.value)), 0.004, 1)
		if o.err != nil {
			t.Fatalf("%s: %v", tc.flag, o.err)
		}
		if got := dirFiles(t, dir); !reflect.DeepEqual(got, tc.files) {
			t.Errorf("%s alone left %v, want %v", tc.flag, got, tc.files)
		}
		wantDigests := len(tc.files)
		if tc.flag == "-dot" {
			wantDigests = 0 // the graph is static topology, not a run artifact
		}
		if len(o.man.Artifacts) != wantDigests {
			t.Errorf("%s alone digested %d artifacts, want %d", tc.flag, len(o.man.Artifacts), wantDigests)
		}
	}

	o := observe(t, parseFlags(t, allArtifacts(t.TempDir())...), 0.004, 1)
	if o.err != nil {
		t.Fatal(o.err)
	}
	var got []string
	for _, a := range o.man.Artifacts {
		got = append(got, a.Name)
	}
	want := []string{
		"metrics", "trace", "energy",
		"congestion_heatmap", "congestion_heatmap_svg", "energy_heatmap", "energy_heatmap_svg",
		"latency_breakdown", "latency_breakdown_ndjson", "latency_breakdown_svg",
		"token_fairness_tiles", "token_fairness_jain", "token_fairness_heatmap",
		"state_dump", "state_dump_text",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest artifact order:\n got %v\nwant %v", got, want)
	}
	var labels []string
	for _, line := range strings.Split(strings.TrimSpace(o.report), "\n") {
		labels = append(labels, strings.SplitN(line, ":", 2)[0])
	}
	if want := []string{"metrics", "trace", "energy", "heatmaps", "breakdown", "fairness", "dump"}; !reflect.DeepEqual(labels[len(labels)-len(want):], want) {
		t.Errorf("status lines end with %v, want %v", labels, want)
	}
}

// TestEmitUnwritablePath: a path that cannot be written fails Emit with
// an error naming it, nothing is digested for it, and the groups emitted
// before it are still reported.
func TestEmitUnwritablePath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "hm")
	o := observe(t, parseFlags(t, "-energy", filepath.Join(dir, "e.csv"), "-heatmap", bad), 0.004, 1)
	if o.err == nil || !strings.Contains(o.err.Error(), bad+"_congestion.csv") {
		t.Fatalf("Emit error = %v, want one naming %s_congestion.csv", o.err, bad)
	}
	if len(o.man.Artifacts) != 1 || o.man.Artifacts[0].Name != "energy" {
		t.Errorf("digested %+v, want the energy CSV only", o.man.Artifacts)
	}
	if !strings.Contains(o.report, "energy:") || strings.Contains(o.report, "heatmaps:") {
		t.Errorf("report after the failure:\n%s", o.report)
	}
}

// TestRecorderFeedsTokenGauges is the regression test for the drifted
// derivation: a flight recorder installed for the watchdog alone (no
// listener, no artifact prefix) must still have its stall tracker fed, so
// the token.* gauges read what a -fairness run reads, not zero.
func TestRecorderFeedsTokenGauges(t *testing.T) {
	acquisitions := func(f *Flags) float64 {
		f.Watchdog.StallWindows = 1000
		smp := observe(t, f, 0.004, 1).n.Probe.Sampler()
		i := slices.Index(smp.Names(), "token.photonic.acquisitions")
		if i < 0 {
			t.Fatal("token.photonic.acquisitions is not registered")
		}
		_, values := smp.Row(smp.Rows() - 1)
		return values[i]
	}
	dir := t.TempDir()
	alone := acquisitions(parseFlags(t, "-metrics", filepath.Join(dir, "a.csv")))
	withFairness := acquisitions(parseFlags(t, "-metrics", filepath.Join(dir, "b.csv"), "-fairness", filepath.Join(dir, "fair")))
	if alone == 0 || alone != withFairness {
		t.Fatalf("token.photonic.acquisitions = %v under the watchdog alone, %v with -fairness; want equal and > 0", alone, withFairness)
	}
}
