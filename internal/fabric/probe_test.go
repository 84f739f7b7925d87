package fabric

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ownsim/internal/probe"
	"ownsim/internal/sbus"
	"ownsim/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedRing runs a ring network with a fully enabled probe and returns
// the network and its probe after the run completes.
func tracedRing(nRouters int, opts probe.Options, seed uint64) (*Network, *probe.Probe) {
	n := ring(nRouters, nil)
	p := probe.New(opts)
	n.InstallProbe(p)
	n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.1, PktFlits: 2, Seed: seed},
		RunSpec{Warmup: 10, Measure: 50},
	)
	return n, p
}

// TestProbeInertOnSummary is the acceptance guard for the observability
// layer: enabling every probe feature must not change the simulation.
// Summaries are compared bit-for-bit (struct equality), not
// approximately.
func TestProbeInertOnSummary(t *testing.T) {
	run := func(withProbe bool) Result {
		n := ring(4, nil)
		if withProbe {
			n.InstallProbe(probe.New(probe.Options{
				MetricsEvery: 32,
				TraceEvery:   1,
				Spans:        true,
			}))
		}
		return n.Run(
			TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
			RunSpec{Warmup: 100, Measure: 800},
		)
	}
	bare := run(false)
	probed := run(true)
	if bare.Summary != probed.Summary {
		t.Fatalf("probe changed the summary:\n  off: %v\n  on:  %v", bare.Summary, probed.Summary)
	}
	if bare.Summary.String() != probed.Summary.String() {
		t.Fatal("probe changed the rendered summary")
	}
	if bare.Drained != probed.Drained {
		t.Fatal("probe changed drain behaviour")
	}
}

// TestGoldenChromeTrace2Router locks the exported Chrome trace-event
// bytes for a tiny two-router run. Run `go test ./internal/fabric
// -run Golden -update` to rebless after an intentional format change.
func TestGoldenChromeTrace2Router(t *testing.T) {
	_, p := tracedRing(2, probe.Options{MetricsEvery: 16, TraceEvery: 1}, 7)
	tr := p.Tracer()
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tiny run dropped %d events", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_2router.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace deviates from golden file %s (len %d vs %d); rerun with -update if intentional",
			golden, buf.Len(), len(want))
	}
}

// TestTracedArtifactsByteStable repeats one traced run and requires every
// exported artifact — metrics CSV, Chrome trace, manifest — to be
// byte-identical across the repeats.
func TestTracedArtifactsByteStable(t *testing.T) {
	render := func() (csv, chrome, manifest []byte) {
		_, p := tracedRing(3, probe.Options{MetricsEvery: 16, TraceEvery: 2}, 13)
		var b1, b2, b3 bytes.Buffer
		if err := p.Sampler().WriteCSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := p.Tracer().WriteChrome(&b2); err != nil {
			t.Fatal(err)
		}
		m := &probe.Manifest{Tool: "test", Config: map[string]string{"seed": "13"}, Cores: 3, Seed: 13}
		m.AddArtifact("metrics", "m.csv", b1.Bytes())
		m.AddArtifact("trace", "t.json", b2.Bytes())
		if err := m.WriteJSON(&b3); err != nil {
			t.Fatal(err)
		}
		return b1.Bytes(), b2.Bytes(), b3.Bytes()
	}
	c1, ch1, m1 := render()
	c2, ch2, m2 := render()
	for _, pair := range []struct {
		name string
		a, b []byte
	}{
		{"metrics CSV", c1, c2},
		{"Chrome trace", ch1, ch2},
		{"manifest", m1, m2},
	} {
		if !bytes.Equal(pair.a, pair.b) {
			t.Fatalf("%s differs across identical runs", pair.name)
		}
	}
}

// TestTraceStrideFiltersPackets checks the every-Nth-packet knob: with
// stride 2 only even packet IDs appear in the event stream.
func TestTraceStrideFiltersPackets(t *testing.T) {
	_, p := tracedRing(3, probe.Options{TraceEvery: 2}, 21)
	evs := p.Tracer().Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for _, e := range evs {
		if e.Pkt%2 != 0 {
			t.Fatalf("packet %d traced despite stride 2", e.Pkt)
		}
	}
}

// TestMetricsCoverRun checks the sampler saw the whole run (final flush
// included) and that the ejected-packet gauge reached the run total.
func TestMetricsCoverRun(t *testing.T) {
	n, p := tracedRing(3, probe.Options{MetricsEvery: 16}, 5)
	s := p.Sampler()
	if s.Rows() < 2 {
		t.Fatalf("sampler rows = %d, want several windows", s.Rows())
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	header := strings.Split(lines[0], ",")
	col := -1
	for i, h := range header {
		if h == "net.ejected_pkts" {
			col = i
		}
	}
	if col == -1 {
		t.Fatalf("net.ejected_pkts missing from header %v", header)
	}
	lastRow := strings.Split(lines[len(lines)-1], ",")
	var ejected uint64
	for _, snk := range n.Sinks {
		ejected += snk.Ejected
	}
	if lastRow[col] != strconv.FormatUint(ejected, 10) {
		t.Fatalf("final ejected gauge = %s, want %d", lastRow[col], ejected)
	}
}

func TestInstallProbeTwicePanics(t *testing.T) {
	n := ring(2, nil)
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: 8}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double install")
		}
	}()
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: 8}))
}

func TestInstallNilProbeIsNoop(t *testing.T) {
	n := ring(2, nil)
	n.InstallProbe(nil)
	if n.Probe != nil {
		t.Fatal("nil install must leave the network unprobed")
	}
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 2, Seed: 3},
		RunSpec{Warmup: 50, Measure: 200},
	)
	if !res.Drained {
		t.Fatal("unprobed network failed to drain")
	}
}

// TestTelemetryTieBreakByName guards the deterministic channel ordering:
// channels with equal busy counts must render sorted by name regardless
// of registration order.
func TestTelemetryTieBreakByName(t *testing.T) {
	n := New("tie", 1, nil)
	// Registered in reverse-alphabetical order; both idle (BusyCy 0).
	n.TrackChannel(sbus.NewChannel("zeta", 1, 1, 1))
	n.TrackChannel(sbus.NewChannel("alpha", 1, 1, 1))
	out := n.Telemetry(2)
	za := strings.Index(out, "zeta")
	al := strings.Index(out, "alpha")
	if za < 0 || al < 0 {
		t.Fatalf("telemetry lost channels: %q", out)
	}
	if al > za {
		t.Fatalf("equal-busy channels not sorted by name:\n%s", out)
	}
}

func BenchmarkRingRunNoProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := ring(4, nil)
		n.Run(
			TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
			RunSpec{Warmup: 100, Measure: 800},
		)
	}
}

func BenchmarkRingRunProbeInstalled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := ring(4, nil)
		n.InstallProbe(probe.New(probe.Options{MetricsEvery: 256, TraceEvery: 64}))
		n.Run(
			TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
			RunSpec{Warmup: 100, Measure: 800},
		)
	}
}
