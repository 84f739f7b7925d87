package obs

import (
	"os"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
)

// TestEmitLatencyBreakdownRequiresSpans: asking for the breakdown
// artifacts on a network whose probe has no span tracker is a hard
// error, not an empty file.
func TestEmitLatencyBreakdownRequiresSpans(t *testing.T) {
	n := obsRing(3, power.NewMeter(nil))
	n.InstallProbe(probe.New(probe.Options{}))
	if _, err := EmitLatencyBreakdown(n, t.TempDir(), nil); err == nil {
		t.Fatal("EmitLatencyBreakdown succeeded without span decomposition")
	}
}

// TestEmitLatencyBreakdownArtifacts runs the ring with span attribution
// on and checks the emission path end to end: one file, recorded in
// the manifest under its logical name, with the identity holding.
func TestEmitLatencyBreakdownArtifacts(t *testing.T) {
	n := obsRing(4, power.NewMeter(nil))
	pr := probe.New(probe.Options{Spans: true})
	n.InstallProbe(pr)
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
		fabric.RunSpec{Warmup: 100, Measure: 800},
	)
	sp := pr.Spans()
	if sp.Packets() == 0 {
		t.Fatal("ring run attributed no packets")
	}
	if sp.Mismatches() != 0 || sp.TotalPhaseCycles() != sp.LatencyCycles() {
		t.Fatalf("identity broken: %d mismatches, %d/%d cy",
			sp.Mismatches(), sp.TotalPhaseCycles(), sp.LatencyCycles())
	}

	man := &probe.Manifest{Tool: "obs-test"}
	files, err := EmitLatencyBreakdown(n, t.TempDir(), man)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(man.Artifacts) != 1 || man.Artifacts[0].Name != "latency_breakdown" {
		t.Fatalf("files = %v, manifest %+v; want breakdown.csv as latency_breakdown", files, man.Artifacts)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Errorf("%s is empty", files[0])
	}
}
