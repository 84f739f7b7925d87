package core

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// flightRun repeats the golden fixed-seed configuration with the flight
// recorder installed ahead of a span-tracking, sampling probe — the full
// diagnostics stack cmd/ownsim wires for an -out record — and the
// watchdog armed with the given budget in cycles (0 = off).
func flightRun(t *testing.T, cores int, rate float64, watchdog uint64) (fabric.Result, *fabric.Network, *flightrec.FlightRecorder) {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	fr := flightrec.New(flightrec.Options{Watchdog: watchdog})
	n.InstallFlightRecorder(fr)
	p := probe.New(probe.Options{Spans: true, MetricsEvery: flightrec.Window})
	n.InstallProbe(p)
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	fr.Dog.Finish()
	return res, n, fr
}

// TestFlightRecorderInertOWN256 pins the diagnostics bargain: installing
// the full flight-recorder stack must not change a single bit of the
// simulation result.
func TestFlightRecorderInertOWN256(t *testing.T) {
	res, _, _ := flightRun(t, 256, 0.004, 0)
	if bare := goldenRun(t, 256, 0.004); res != bare {
		t.Fatalf("flight-recorder run diverged from bare run:\n got %+v\nwant %+v", res, bare)
	}
}

// TestTokenWaitReconciliation checks the cross-layer identity: the stall
// tracker is fed from the same channel-transmit hook that charges span
// token_wait, so the per-tile sums must reconcile with the span phase
// total cycle for cycle.
func TestTokenWaitReconciliation(t *testing.T) {
	check := func(cores int, rate float64) {
		_, n, fr := flightRun(t, cores, rate, 0)
		sp := n.Probe.Spans()
		if sp == nil {
			t.Fatal("span tracker not installed")
		}
		got, want := fr.Stall.TotalWaitCy(), sp.PhaseCycles(probe.SpanTokenWait)
		if got != want {
			t.Errorf("%d cores: stall tracker total %d cy != span token_wait %d cy", cores, got, want)
		}
		if want == 0 {
			t.Errorf("%d cores: no token waits recorded; fixture exercises nothing", cores)
		}
	}
	check(256, 0.004)
	if !testing.Short() {
		check(1024, 0.001)
	}
}

// TestFlightRecorderRingFollowsSampler checks the ring recorder sees the
// sampler's windows, names aligned with the registry, with the token and
// stall gauges registered behind the established columns.
func TestFlightRecorderRingFollowsSampler(t *testing.T) {
	_, _, fr := flightRun(t, 256, 0.004, 0)
	if fr.Rec.Total() == 0 {
		t.Fatal("ring recorder observed no sampler windows")
	}
	names := fr.Rec.Names()
	if len(names) == 0 {
		t.Fatal("ring recorder has no metric names")
	}
	tail := fr.Rec.Tail(0)
	if len(tail) == 0 {
		t.Fatal("ring recorder retained no frames")
	}
	for _, f := range tail {
		if len(f.Values) != len(names) {
			t.Fatalf("frame holds %d values for %d names", len(f.Values), len(names))
		}
	}
	// The flight-recorder gauges ride behind every pre-existing column:
	// no token.*/stall.* name may precede a non-flightrec name.
	lastOther, firstFR := -1, len(names)
	for i, name := range names {
		if strings.HasPrefix(name, "token.") || strings.HasPrefix(name, "stall.") {
			if i < firstFR {
				firstFR = i
			}
		} else if i > lastOther {
			lastOther = i
		}
	}
	if firstFR == len(names) {
		t.Fatal("no token.*/stall.* gauges registered")
	}
	if firstFR < lastOther {
		t.Errorf("flight-recorder gauges interleave the established columns (first at %d, others end at %d)", firstFR, lastOther)
	}
}

// TestWatchdogOnGoldenRun arms the watchdog on the golden OWN-256 run.
// At README's budget of 20 000 cycles a healthy run never trips. At a
// budget of one cycle every writer that waits for its token across a
// window boundary is "starved", so the run trips, and the reason names
// the waiting writer's router and the token owner. Either way the
// Result is the bare run's.
func TestWatchdogOnGoldenRun(t *testing.T) {
	bare := goldenRun(t, 256, 0.004)
	res, _, fr := flightRun(t, 256, 0.004, 20000)
	if res != bare {
		t.Errorf("budget 20000: watchdog run diverged from bare run")
	}
	if trips := fr.Dog.Trips(); trips != 0 {
		t.Errorf("budget 20000: watchdog tripped %d times on the golden run: %v", trips, fr.Dog.TripReasons())
	}
	res, _, fr = flightRun(t, 256, 0.004, 1)
	if res != bare {
		t.Errorf("budget 1: watchdog run diverged from bare run")
	}
	starved := regexp.MustCompile(`^token starvation on (photonic|wireless) "[^"]+": writer \d+ \(router \d+\) waiting \d+ cy > budget 1, token at writer \d+ \(router \d+\)$`)
	if !slices.ContainsFunc(fr.Dog.TripReasons(), starved.MatchString) {
		t.Errorf("budget 1: %d trips, none a starvation naming both routers: %v", fr.Dog.Trips(), fr.Dog.TripReasons())
	}
}

// TestFairnessArtifactsByteStableAcrossGOMAXPROCS renders the fairness
// and state-dump artifact set from identical runs under different
// GOMAXPROCS settings; host parallelism must never leak into the bytes.
func TestFairnessArtifactsByteStableAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) map[string][]byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		_, n, _ := flightRun(t, 256, 0.004, 0)
		dir := t.TempDir()
		files, err := obs.EmitFairness(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 3 {
			t.Fatalf("EmitFairness returned %v, want tiles+jain+heatmap", files)
		}
		dumps, err := obs.EmitDump(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dumps) != 2 {
			t.Fatalf("EmitDump returned %v, want json+text", dumps)
		}
		arts := make(map[string][]byte)
		for _, path := range append(files, dumps...) {
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

// TestFairnessArtifactsRequireRecorder pins the error paths: both
// emitters refuse to run without an installed flight recorder.
func TestFairnessArtifactsRequireRecorder(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	dir := t.TempDir()
	if _, err := obs.EmitFairness(n, dir, nil); err == nil {
		t.Error("EmitFairness without a flight recorder must error")
	}
	if _, err := obs.EmitDump(n, dir, nil); err == nil {
		t.Error("EmitDump without a flight recorder must error")
	}
}
