package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
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

// observe drives a session the way both CLIs do: build, OpenRecord,
// Start, Run, Finish, Emit.
func observe(t *testing.T, f *Flags, rate float64, seed uint64) observed {
	t.Helper()
	man, err := f.OpenRecord("obs-test", 256, seed, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	s, err := Start(n, f, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 200, Measure: 800},
	)
	s.Finish()
	if v := s.Violations(); v != 0 {
		t.Fatalf("%d invariant violations on a golden configuration", v)
	}
	o := observed{n: n, man: man}
	var out bytes.Buffer
	o.err = s.Emit(man, &out)
	o.report = out.String()
	return o
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

// TestRegisterDeclaresTheSharedFlags pins the surface: exactly the two
// shared names, with the defaults both CLIs always had.
func TestRegisterDeclaresTheSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
	new(Flags).Register(fs, "the run")
	want := map[string]string{
		"out": "", "check": "false",
	}
	got := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared flags and defaults:\n got %v\nwant %v", got, want)
	}
}

// TestSweepRerunMatchesOwnsimRun is the property the two hand-copied
// blocks only promised: sweep's observed re-run of its top point and
// `ownsim -load loads[last] -seed seed+last` write byte-identical records
// outside manifest.json. The sweep side drops -check for the re-run as
// cmd/sweep does. (An ownsim -check run is not part of the property:
// the checker's always-on collect-phase ticker shows in the engine.*
// scheduler counters of the metrics, dump and manifest.)
func TestSweepRerunMatchesOwnsimRun(t *testing.T) {
	loads := core.SweepLoads(256, 3)
	last := len(loads) - 1
	const seed = 5

	sweepDir, ownsimDir := t.TempDir(), t.TempDir()
	rerun := *parseFlags(t, "-out", sweepDir, "-check")
	rerun.Check = false
	sw := observe(t, &rerun, loads[last], seed+uint64(last))

	ow := observe(t, parseFlags(t, "-out", ownsimDir), loads[last], seed+uint64(last))

	if sw.err != nil || ow.err != nil {
		t.Fatalf("Emit: sweep %v, ownsim %v", sw.err, ow.err)
	}
	names := dirFiles(t, sweepDir)
	if got := dirFiles(t, ownsimDir); !reflect.DeepEqual(got, names) || len(names) != len(recordFiles) {
		t.Fatalf("file sets differ or are incomplete:\n sweep  %v\n ownsim %v", names, got)
	}
	for _, name := range names {
		if name == "manifest.json" {
			continue
		}
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
	if !reflect.DeepEqual(sw.man.Artifacts, ow.man.Artifacts) {
		t.Errorf("manifest artifacts:\n sweep  %+v\n ownsim %+v", sw.man.Artifacts, ow.man.Artifacts)
	}
	if !reflect.DeepEqual(sw.man.Engine, ow.man.Engine) || !reflect.DeepEqual(sw.man.Pools, ow.man.Pools) {
		t.Error("engine/pool introspection differs between the two runs")
	}
}

// recordFiles is the record README documents: every file -out writes, in
// name order.
var recordFiles = []string{
	"breakdown.csv", "dump.json", "dump.txt", "energy.csv",
	"fair_jain.csv", "fair_tiles.csv", "heat_congestion.csv", "heat_energy.csv",
	"manifest.json", "metrics.csv", "topology.dot", "trace.json",
}

// TestArtifactGroupFiles is the record table README documents: -out
// leaves exactly the record's files, digests every artifact but the
// static topology into the manifest in the groups' fixed order under
// names relative to the directory, and reports one status line per group.
func TestArtifactGroupFiles(t *testing.T) {
	dir := t.TempDir()
	o := observe(t, parseFlags(t, "-out", dir), 0.004, 1)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, recordFiles) {
		t.Errorf("-out left %v, want %v", got, recordFiles)
	}
	var names, paths []string
	for _, a := range o.man.Artifacts {
		names = append(names, a.Name)
		paths = append(paths, a.Path)
	}
	want := []string{
		"metrics", "trace", "energy",
		"congestion_heatmap", "energy_heatmap", "latency_breakdown",
		"token_fairness_tiles", "token_fairness_jain",
		"state_dump", "state_dump_text",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("manifest artifact order:\n got %v\nwant %v", names, want)
	}
	for _, p := range paths {
		if filepath.Base(p) != p {
			t.Errorf("manifest path %q is not relative to the record", p)
		}
	}
	var labels []string
	for _, line := range strings.Split(strings.TrimSpace(o.report), "\n") {
		labels = append(labels, strings.SplitN(line, ":", 2)[0])
	}
	if want := []string{"metrics", "trace", "energy", "heatmaps", "breakdown", "fairness", "dump", "manifest"}; !reflect.DeepEqual(labels[len(labels)-len(want):], want) {
		t.Errorf("status lines end with %v, want %v", labels, want)
	}
}

// TestEmitUnwritablePath: a record file that cannot be written fails Emit
// with an error naming it, nothing is digested for it, no manifest is
// written, and the groups emitted before it are still reported.
func TestEmitUnwritablePath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "heat_congestion.csv")
	if err := os.Mkdir(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	o := observe(t, parseFlags(t, "-out", dir), 0.004, 1)
	if o.err == nil || !strings.Contains(o.err.Error(), bad) {
		t.Fatalf("Emit error = %v, want one naming %s", o.err, bad)
	}
	var names []string
	for _, a := range o.man.Artifacts {
		names = append(names, a.Name)
	}
	if want := []string{"metrics", "trace", "energy"}; !reflect.DeepEqual(names, want) {
		t.Errorf("digested %v, want %v", names, want)
	}
	if !strings.Contains(o.report, "energy:") || strings.Contains(o.report, "heatmaps:") {
		t.Errorf("report after the failure:\n%s", o.report)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("manifest.json written after a failed group (stat: %v)", err)
	}
}

// TestReadBuildInfoStampsTestBinary: the build block OpenRecord stamps
// into a manifest names the toolchain and the module.
func TestReadBuildInfoStampsTestBinary(t *testing.T) {
	bi := probe.ReadBuildInfo()
	if bi == nil {
		t.Skip("runtime carries no build info")
	}
	if bi.GoVersion == "" || bi.Module == "" {
		t.Errorf("build info incomplete: %+v", bi)
	}
}
