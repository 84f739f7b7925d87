package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// flightRun repeats the golden fixed-seed configuration with the flight
// recorder installed ahead of a span-tracking, sampling probe — the full
// diagnostics stack cmd/ownsim wires for an -out record.
func flightRun(t *testing.T, cores int, rate float64) (fabric.Result, *fabric.Network, *flightrec.FlightRecorder) {
	t.Helper()
	sys := NewSystem("own", cores, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	fr := flightrec.New(flightrec.Options{})
	n.InstallFlightRecorder(fr)
	p := probe.New(probe.Options{Spans: true, MetricsEvery: flightrec.Window})
	n.InstallProbe(p)
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, Seed: 77, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	return res, n, fr
}

// TestFlightRecorderInertOWN256 pins the diagnostics bargain: installing
// the full flight-recorder stack must not change a single bit of the
// simulation result.
func TestFlightRecorderInertOWN256(t *testing.T) {
	res, _, _ := flightRun(t, 256, 0.004)
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
		_, n, _ := flightRun(t, cores, rate)
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

// TestFlightRecorderRingFollowsSampler checks the recorder counts the
// sampler's windows and that the span, token and stall gauges are
// registered, in that order, behind the established columns of the
// sampler metrics.csv is written from.
func TestFlightRecorderRingFollowsSampler(t *testing.T) {
	_, n, fr := flightRun(t, 256, 0.004)
	smp := n.Probe.Sampler()
	if fr.Rec.Total() == 0 || fr.Rec.Total() != uint64(smp.Rows()) {
		t.Fatalf("recorder counts %d windows, the sampler took %d", fr.Rec.Total(), smp.Rows())
	}
	names := smp.Names()
	if len(names) == 0 {
		t.Fatal("sampler has no metric names")
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

// TestExitDumpNamesWaitersOnGoldenRun reads token waits where a record
// keeps them, in the exit state dump of the golden OWN-256 run: some
// writer still waits for its token at the end, every waiting writer
// names its router, and each channel's token names a writer; some writer
// closed a wait during the run. The Result is the bare run's.
func TestExitDumpNamesWaitersOnGoldenRun(t *testing.T) {
	res, n, _ := flightRun(t, 256, 0.004)
	if bare := goldenRun(t, 256, 0.004); res != bare {
		t.Errorf("recorded run diverged from bare run:\n got %+v\nwant %+v", res, bare)
	}
	snap := n.Snapshot("exit")
	waiting, longest := 0, uint64(0)
	isRouter := func(id int) bool { return id >= 0 && id < len(n.Routers) }
	for _, c := range snap.Channels {
		if c.Token < 0 || c.Token >= len(c.Writers) || !isRouter(c.Writers[c.Token].ID) {
			t.Errorf("%s %s: token at writer %d of %d names no router", c.Kind, c.Name, c.Token, len(c.Writers))
		}
		for _, wr := range c.Writers {
			if wr.Waiting {
				waiting++
				if !isRouter(wr.ID) {
					t.Errorf("%s %s: waiting writer %d names router %d", c.Kind, c.Name, wr.Index, wr.ID)
				}
			}
			longest = max(longest, wr.MaxWaitCy)
		}
	}
	if waiting == 0 || longest == 0 {
		t.Fatalf("exit dump: %d waiting writers, longest closed wait %d cy; want some of each", waiting, longest)
	}
}

// TestFairnessArtifactsByteStableAcrossGOMAXPROCS renders the fairness
// and state-dump artifact set from identical runs under different
// GOMAXPROCS settings; host parallelism must never leak into the bytes.
func TestFairnessArtifactsByteStableAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) map[string][]byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		_, n, _ := flightRun(t, 256, 0.004)
		dir := t.TempDir()
		files, err := obs.EmitFairness(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("EmitFairness returned %v, want tiles+jain", files)
		}
		dumps, err := obs.EmitDump(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dumps) != 1 {
			t.Fatalf("EmitDump returned %v, want dump.json", dumps)
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

// tickFunc adapts a function to sim.Ticker.
type tickFunc func(cycle uint64)

func (f tickFunc) Tick(cycle uint64) { f(cycle) }

// TestNetGaugesReadProgress pins the one liveness sum: at every sample of
// an observed OWN-256 run, the six leading net.* columns read the fields
// of Network.Progress as of that moment. A Collect-phase ticker
// registered after the probe's sampler checks each row right after the
// sampler takes it; the final flushed row is checked after the run.
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
	smp := p.Sampler()
	samples, buffered := 0, 0
	checkNewRows := func(now uint64) {
		for ; samples < smp.Rows(); samples++ {
			cycle, values := smp.Row(samples)
			if cycle != now {
				t.Fatalf("sample of cycle %d read at cycle %d", cycle, now)
			}
			pr := n.Progress()
			fields := []int{pr.BufferedFlits, int(pr.Generated), int(pr.Injected), int(pr.Dropped), pr.SrcQueued, int(pr.Ejected)}
			for i, f := range fields {
				if values[i] != float64(f) {
					t.Errorf("cycle %d: %s = %v, Progress reads %d", cycle, want[i], values[i], f)
				}
			}
			buffered += pr.BufferedFlits
		}
	}
	n.Eng.Register(sim.PhaseCollect, tickFunc(checkNewRows))
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.006, Seed: 5, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	checkNewRows(n.Eng.Cycle())
	if samples < 10 || buffered == 0 {
		t.Fatalf("%d samples, %d flits buffered over them: the fixture exercises nothing", samples, buffered)
	}
}
