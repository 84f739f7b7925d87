// Command sweep produces a latency/throughput-versus-load curve for one
// or all architectures (the data behind the paper's Figure 7b/c), in CSV
// on stdout. Sweep points run in parallel across CPUs; one progress line
// per finished point goes to stderr.
//
// The observation flags are cmd/ownsim's (internal/obs.Flags) and need a
// single -topo: when any is set, the highest load point is re-run as an
// observed run — exactly `ownsim -load <that load> -seed <its seed>` —
// and leaves the same artifacts (README has the flag → files table).
// -manifest records the whole sweep — configuration, every point,
// artifact digests — as machine-readable JSON, and -check runs every
// sweep point under the conformance checker. Artifacts are
// deterministic: same flags and seed give byte-identical files
// regardless of GOMAXPROCS, with or without -listen.
//
// Examples:
//
//	sweep -topo all -cores 256 -pattern uniform -points 10
//	sweep -topo own -points 8 -telemetry 5 -metrics m.csv -trace t.json -manifest run.json
//	sweep -topo own -points 6 -listen :9090 -energy energy.csv -heatmap heat
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/plot"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	var rf core.RunFlags
	rf.Register(flag.CommandLine, "all")
	points := flag.Int("points", 8, "number of load points")
	doPlot := flag.Bool("plot", false, "render an ASCII latency-load chart on stderr")
	var of obs.Flags
	of.Register(flag.CommandLine, "the highest-load point (single -topo)")
	flag.Parse()

	// A flag value no sweep can honour is one line and exit 2, before
	// anything is built.
	usage := func(err error) {
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}
	usage(core.CheckSweepPoints(*points))
	loads := core.SweepLoads(rf.Cores, *points)
	pat, names, err := rf.Validate(loads[0])
	usage(err)
	usage(of.Validate())
	if (of.Instrumented() || of.Dot != "") && rf.Topo == "all" {
		usage(errors.New("-telemetry, -dot, -metrics, -trace, -listen, -energy, -heatmap, -latency-breakdown, -fairness and -dump-on-exit need a single -topo"))
	}
	b := core.Budget{Warmup: rf.Warmup, Measure: rf.Measure, Loads: *points, Seed: rf.Seed, ReservoirCap: of.Reservoir}

	var man *probe.Manifest
	if of.Manifest != "" {
		man = &probe.Manifest{
			Tool: "sweep",
			Config: map[string]string{
				"topo":      rf.Topo,
				"cores":     strconv.Itoa(rf.Cores),
				"pattern":   pat.String(),
				"points":    strconv.Itoa(*points),
				"warmup":    strconv.FormatUint(rf.Warmup, 10),
				"measure":   strconv.FormatUint(rf.Measure, 10),
				"sample":    strconv.FormatUint(of.Sample, 10),
				"window":    strconv.FormatUint(of.Window, 10),
				"reservoir": strconv.Itoa(of.Reservoir),
				"check":     strconv.FormatBool(of.Check),
			},
			Cores: rf.Cores,
			Seed:  rf.Seed,
			Build: probe.ReadBuildInfo(),
		}
	}

	start := time.Now()
	done := 0
	violations := 0
	total := len(names) * len(loads)
	var mu sync.Mutex
	fmt.Println("topology,pattern,load_fnc,avg_latency_cy,throughput_fnc,saturated")
	var chart []plot.Series
	for _, name := range names {
		name := name
		sys := core.NewSystem(name, rf.Cores, wireless.Config4, wireless.Ideal)
		// Per-point progress on stderr; wall-clock timing is allowed
		// here in cmd/ (the deterministic CSV/manifest outputs never
		// see it). Completion order is whatever the worker pool gives.
		onPoint := func(i int, p stats.CurvePoint) {
			mu.Lock()
			defer mu.Unlock()
			done++
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s load=%.5f latency=%.1f thr=%.5f sat=%v (%.1fs)\n",
				done, total, name, p.Load, p.Latency, p.Throughput, p.Saturated, time.Since(start).Seconds())
		}
		var pts []stats.CurvePoint
		if of.Check {
			// Checked sweep: same curve (the checker is inert), plus every
			// invariant violation across the points, in load order.
			var vs []check.Violation
			pts, vs = core.CheckedSweep(sys, pat, loads, b, onPoint)
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "sweep: INVARIANT VIOLATION [%s]: %s\n", name, v)
			}
			violations += len(vs)
		} else {
			pts = core.SweepWithProgress(sys, pat, loads, b, onPoint)
		}
		series := plot.Series{Name: name}
		for i, p := range pts {
			fmt.Printf("%s,%s,%.6f,%.2f,%.6f,%v\n", name, pat, p.Load, p.Latency, p.Throughput, p.Saturated)
			if !p.Saturated {
				series.X = append(series.X, p.Load)
				series.Y = append(series.Y, p.Latency)
			}
			if man != nil {
				man.Points = append(man.Points, probe.Point{
					System: name, Load: loads[i], Latency: p.Latency,
					Throughput: p.Throughput, Saturated: p.Saturated,
				})
			}
		}
		chart = append(chart, series)
	}
	if *doPlot {
		title := fmt.Sprintf("avg latency (cy) vs offered load (f/n/c), %s @ %d cores", pat, rf.Cores)
		fmt.Fprint(os.Stderr, plot.Chart(title, chart, 72, 18))
	}

	// Observed re-run of the highest-load point: every observer is inert,
	// so its summary matches the sweep's last point exactly. -check already
	// covered the sweep points, so the re-run carries no checker.
	if of.Instrumented() || of.Dot != "" {
		sys := core.NewSystem(rf.Topo, rf.Cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		rerun := of
		rerun.Check = false
		s, err := obs.Start(n, &rerun, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		if of.Dot != "" {
			log.Printf("wrote topology graph to %s", of.Dot)
		}
		if of.Instrumented() {
			last := len(loads) - 1
			res := n.Run(
				fabric.TrafficSpec{Pattern: pat, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify},
				fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure, ReservoirCap: b.ReservoirCap},
			)
			s.Finish()
			log.Printf("instrumented %s @ load %.5f: %s", rf.Topo, loads[last], res.Summary)
			if err := s.Emit(man, os.Stderr); err != nil {
				log.Fatal(err)
			}
		}
	}

	if man != nil {
		if err := obs.WriteManifest(man, of.Manifest); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote manifest to %s", of.Manifest)
	}
	if of.Check {
		if violations > 0 {
			log.Fatalf("conformance: %d invariant violation(s) across the sweep", violations)
		}
		log.Printf("conformance clean across %d checked point(s)", total)
	}
}
