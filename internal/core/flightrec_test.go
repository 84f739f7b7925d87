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

// TestTokenWaitReconciliation checks the cross-layer identity: the span
// tracker books each token wait it charges to token_wait in its token
// ledger, so the ledger's channel rows, and its cells per row, sum to the
// span phase total cycle for cycle.
func TestTokenWaitReconciliation(t *testing.T) {
	check := func(cores int, rate float64) {
		_, n, _ := flightRun(t, cores, rate, 0)
		sp := n.Probe.Spans()
		if sp == nil {
			t.Fatal("span tracker not installed")
		}
		var rows, cells uint64
		for ci := range n.Channels {
			rows += sp.TokenRow(ci).WaitCy
			for tile := range n.Tiles() {
				cells += sp.Token(ci, tile).WaitCy
			}
		}
		want := sp.PhaseCycles(probe.SpanTokenWait)
		if rows != want || cells != want {
			t.Errorf("%d cores: token ledger rows %d cy, cells %d cy, span token_wait %d cy", cores, rows, cells, want)
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
// sampler's windows, names aligned with the registry, with the span,
// token and stall gauges registered, in that order, behind the
// established columns.
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
	// The span, token and stall gauges ride, in that order, behind every
	// other column.
	rank := func(name string) int {
		for r, prefix := range []string{"span.", "token.", "stall."} {
			if strings.HasPrefix(name, prefix) {
				return r + 1
			}
		}
		return 0
	}
	seen := [4]int{}
	for i, name := range names {
		if i > 0 && rank(name) < rank(names[i-1]) {
			t.Errorf("%s (column %d) follows %s", name, i, names[i-1])
		}
		seen[rank(name)]++
	}
	if seen[2] != 6 || seen[3] == 0 {
		t.Errorf("%d token.* and %d stall.* gauges registered, want 6 and some", seen[2], seen[3])
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

// TestFairnessArtifactsRequireRecorder pins the error paths: each
// emitter refuses to run without what it renders. The fairness artifacts
// read the span tracker's token ledger, so a flight recorder under a
// probe without spans does not make them; the dump needs the recorder.
func TestFairnessArtifactsRequireRecorder(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	n.InstallFlightRecorder(flightrec.New(flightrec.Options{}))
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: flightrec.Window}))
	dir := t.TempDir()
	if _, err := obs.EmitFairness(n, dir, nil); err == nil || !strings.Contains(err.Error(), "span decomposition is not enabled") {
		t.Errorf("EmitFairness under a probe without spans: err = %v, want span decomposition is not enabled", err)
	}
	bare := sys.Build(power.NewMeter(nil))
	if _, err := obs.EmitDump(bare, dir, nil); err == nil {
		t.Error("EmitDump without a flight recorder must error")
	}
}

// TestNetGaugesReadProgress pins the one liveness sum: at every sample of
// an observed OWN-256 run, the six leading net.* columns read the fields
// of Network.Progress as of that moment.
func TestNetGaugesReadProgress(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	n.InstallFlightRecorder(flightrec.New(flightrec.Options{}))
	p := probe.New(probe.Options{Spans: true, MetricsEvery: 250})
	n.InstallProbe(p)
	want := []string{"net.buffered_flits", "net.generated_pkts", "net.injected_pkts", "net.dropped_pkts", "net.src_queued_pkts", "net.ejected_pkts"}
	if got := p.Registry().Names()[:len(want)]; !slices.Equal(got, want) {
		t.Fatalf("leading columns %v, want %v", got, want)
	}
	samples, buffered := 0, 0
	p.Sampler().OnSample = func(cycle uint64, values []float64) {
		pr := n.Progress()
		fields := []int{pr.BufferedFlits, int(pr.Generated), int(pr.Injected), int(pr.Dropped), pr.SrcQueued, int(pr.Ejected)}
		for i, f := range fields {
			if values[i] != float64(f) {
				t.Errorf("cycle %d: %s = %v, Progress reads %d", cycle, want[i], values[i], f)
			}
		}
		samples++
		buffered += pr.BufferedFlits
	}
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.006, Seed: 5, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	if samples < 10 || buffered == 0 {
		t.Fatalf("%d samples, %d flits buffered over them: the fixture exercises nothing", samples, buffered)
	}
}
