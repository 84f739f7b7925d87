package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// spanRun repeats the golden fixed-seed configuration with the span
// tracker installed and returns the simulation result alongside the
// network, so tests can both verify the attribution identity and prove
// the instrumented run is bit-identical to the bare golden run.
func spanRun(t *testing.T, cores int, rate float64) (fabric.Result, *fabric.Network, *probe.SpanTracker) {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	p := probe.New(probe.Options{Spans: true})
	n.InstallProbe(p)
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	return res, n, p.Spans()
}

func checkSpanIdentity(t *testing.T, res fabric.Result, sp *probe.SpanTracker) {
	t.Helper()
	if sp == nil {
		t.Fatal("span tracker not installed")
	}
	if sp.Mismatches() != 0 {
		t.Errorf("Mismatches = %d, want 0", sp.Mismatches())
	}
	if sp.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain, want 0", sp.InFlight())
	}
	if got, want := sp.Packets(), uint64(res.Summary.Packets); got != want {
		t.Errorf("span Packets = %d, collector counted %d", got, want)
	}
	// The telescoping identity: the per-phase attribution must account
	// for every measured packet's latency cycle for cycle.
	if sum, lat := sp.TotalPhaseCycles(), sp.LatencyCycles(); sum != lat {
		t.Errorf("phase sum %d cy != end-to-end latency %d cy", sum, lat)
	}
	// Cross-check against the stats collector. Both sides sum exact
	// integers (< 2^53), so the float means must agree bitwise.
	if avg := float64(sp.LatencyCycles()) / float64(sp.Packets()); avg != res.Summary.AvgLatency {
		t.Errorf("span mean latency %v != collector AvgLatency %v", avg, res.Summary.AvgLatency)
	}
}

func TestSpanIdentityOWN256(t *testing.T) {
	res, _, sp := spanRun(t, 256, 0.004)
	// The span tracker must be inert: same result as the bare golden run.
	if bare := goldenRun(t, 256, 0.004); res != bare {
		t.Fatalf("span-instrumented run diverged from bare run:\n got %+v\nwant %+v", res, bare)
	}
	checkSpanIdentity(t, res, sp)
	// Photonic transit must show up in OWN-256: every inter-cluster hop
	// crosses the crossbar.
	if sp.PhaseCycles(probe.SpanPhotonic) == 0 {
		t.Error("no cycles attributed to photonic transit on OWN-256")
	}
}

func TestSpanIdentityOWN1024(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core span run in -short mode")
	}
	res, _, sp := spanRun(t, 1024, 0.001)
	if bare := goldenRun(t, 1024, 0.001); res != bare {
		t.Fatalf("span-instrumented run diverged from bare run:\n got %+v\nwant %+v", res, bare)
	}
	checkSpanIdentity(t, res, sp)
	// OWN-1024 adds wireless inter-group hops; the class split must have
	// landed in the distance-tagged buckets, not the generic one.
	wireless := sp.PhaseCycles(probe.SpanWirelessC2C) +
		sp.PhaseCycles(probe.SpanWirelessE2E) +
		sp.PhaseCycles(probe.SpanWirelessSR)
	if wireless == 0 {
		t.Error("no cycles attributed to classed wireless transit on OWN-1024")
	}
	if generic := sp.PhaseCycles(probe.SpanWireless); generic != 0 {
		t.Errorf("%d cycles fell into the unclassed wireless bucket", generic)
	}
}

// TestBreakdownArtifactsByteStableAcrossGOMAXPROCS renders the full
// latency-breakdown artifact from identical runs
// under different GOMAXPROCS settings; host parallelism must never leak
// into the emitted bytes.
func TestBreakdownArtifactsByteStableAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) map[string][]byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		_, n, _ := spanRun(t, 256, 0.004)
		dir := t.TempDir()
		files, err := obs.EmitLatencyBreakdown(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 {
			t.Fatalf("EmitLatencyBreakdown returned %v, want breakdown.csv", files)
		}
		arts := make(map[string][]byte, len(files))
		for _, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			arts[filepath.Base(path)] = raw
		}
		return arts
	}
	a1 := render(1)
	a4 := render(4)
	for name, raw := range a1 {
		if !bytes.Equal(raw, a4[name]) {
			t.Errorf("%s depends on GOMAXPROCS", name)
		}
	}
	if len(a1) != len(a4) {
		t.Errorf("artifact sets differ: %d vs %d files", len(a1), len(a4))
	}
}
