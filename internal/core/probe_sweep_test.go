package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestInstrumentedSweepArtifactsAcrossGOMAXPROCS mirrors cmd/sweep's
// observability path end to end: a parallel sweep with a progress
// callback, followed by a single-threaded instrumented re-run of the
// highest-load point. Every exported artifact — the curve itself, the
// metrics CSV, the Chrome trace, the energy attribution CSV, the heatmaps
// and the manifest — must be byte-identical whether the sweep's worker
// pool ran on 1 or 4 procs; host parallelism may only change how fast the
// answer arrives, never the answer.
func TestInstrumentedSweepArtifactsAcrossGOMAXPROCS(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	loads := SweepLoads(256, 2)
	b := Budget{Warmup: 200, Measure: 800, Loads: 2, Seed: 7}

	render := func(procs int) (string, map[string][]byte, []byte) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)

		var mu sync.Mutex
		done := 0
		pts := SweepWithProgress(sys, traffic.Uniform, loads, b, func(int, stats.CurvePoint) {
			mu.Lock()
			done++
			mu.Unlock()
		})
		if done != len(loads) {
			t.Fatalf("progress callback fired %d times, want %d", done, len(loads))
		}

		// Instrumented re-run of the highest-load point, seeded exactly
		// like the sweep seeded it, with the probe installed.
		last := len(loads) - 1
		n := sys.Build(power.NewMeter(nil))
		p := probe.New(probe.Options{MetricsEvery: 128, TraceEvery: 64})
		n.InstallProbe(p)
		n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)

		var metrics, trace, manifest bytes.Buffer
		if err := p.Sampler().WriteCSV(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := p.Tracer().WriteChrome(&trace); err != nil {
			t.Fatal(err)
		}

		// The observability artifacts go through the real emission path
		// (a scratch dir on disk), then into the manifest under fixed
		// logical names so both renders produce identical manifests.
		dir := t.TempDir()
		if _, err := obs.EmitEnergyCSV(n, dir, nil); err != nil {
			t.Fatal(err)
		}
		files, err := obs.EmitHeatmaps(n, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("heatmap files = %v, want congestion + wireless energy", files)
		}
		arts := map[string][]byte{"metrics.csv": metrics.Bytes(), "trace.json": trace.Bytes()}
		for _, path := range append(files, filepath.Join(dir, "energy.csv")) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			arts[filepath.Base(path)] = raw
		}

		man := &probe.Manifest{Tool: "sweep-test", Config: map[string]string{"sys": sys.Name}, Cores: sys.Cores, Seed: b.Seed}
		for i, pt := range pts {
			man.Points = append(man.Points, probe.Point{
				System: sys.Name, Load: loads[i], Latency: pt.Latency,
				Throughput: pt.Throughput, Saturated: pt.Saturated,
			})
		}
		man.AddArtifact("metrics", "metrics.csv", metrics.Bytes())
		man.AddArtifact("trace", "trace.json", trace.Bytes())
		man.AddArtifact("energy", "energy.csv", arts["energy.csv"])
		if err := man.WriteJSON(&manifest); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", pts), arts, manifest.Bytes()
	}

	pts1, arts1, man1 := render(1)
	pts4, arts4, man4 := render(4)
	if pts1 != pts4 {
		t.Fatalf("sweep points depend on GOMAXPROCS:\n  1: %s\n  4: %s", pts1, pts4)
	}
	for name, a1 := range arts1 {
		if !bytes.Equal(a1, arts4[name]) {
			t.Fatalf("%s depends on GOMAXPROCS", name)
		}
	}
	if !bytes.Equal(man1, man4) {
		t.Fatal("manifest depends on GOMAXPROCS")
	}
}
