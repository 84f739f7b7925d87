// Command sweep produces a latency/throughput-versus-load curve for one
// or all architectures (the data behind the paper's Figure 7b/c), in CSV
// on stdout. Sweep points run in parallel across CPUs; one progress line
// per finished point goes to stderr.
//
// The observation flags are cmd/ownsim's (internal/obs.Flags). With a
// single -topo, -out and -telemetry re-run the highest load point as an
// observed run — exactly `ownsim -load <that load> -seed <its seed>` —
// and -out DIR holds its record (the same files ownsim writes) next to
// the sweep's manifest.json, which records the configuration, every
// point and the artifact digests. With -topo all, -out writes the
// manifest alone. -check runs every sweep point under the conformance
// checker. Artifacts are deterministic: same flags and seed give
// byte-identical files regardless of GOMAXPROCS.
//
// Examples:
//
//	sweep -topo all -cores 256 -pattern uniform -points 10
//	sweep -topo own -points 8 -telemetry 5 -out hot
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "sweep: ", 0)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var rf core.RunFlags
	rf.Register(fs, "all")
	points := fs.Int("points", 8, "number of load points")
	doPlot := fs.Bool("plot", false, "render an ASCII latency-load chart on stderr")
	var of obs.Flags
	of.Register(fs, "the highest-load point (single -topo)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A flag value no sweep can honour is one line and exit 2, before
	// anything is built.
	usage := func(err error) int {
		lg.Print(err)
		return 2
	}
	if err := core.CheckSweepPoints(*points); err != nil {
		return usage(err)
	}
	loads := core.SweepLoads(rf.Cores, *points)
	pat, names, err := rf.Validate(loads[0])
	if err != nil {
		return usage(err)
	}
	if rf.Topo == "all" && of.Telemetry > 0 {
		return usage(errors.New("-telemetry needs a single -topo"))
	}
	b := core.Budget{Warmup: rf.Warmup, Measure: rf.Measure, Loads: *points, Seed: rf.Seed}
	man, err := of.OpenRecord("sweep", rf.Cores, rf.Seed, map[string]string{
		"topo":    rf.Topo,
		"cores":   strconv.Itoa(rf.Cores),
		"pattern": pat.String(),
		"points":  strconv.Itoa(*points),
		"warmup":  strconv.FormatUint(rf.Warmup, 10),
		"measure": strconv.FormatUint(rf.Measure, 10),
	})
	if err != nil {
		lg.Print(err)
		return 1
	}

	start := time.Now()
	done := 0
	violations := 0
	total := len(names) * len(loads)
	var mu sync.Mutex
	fmt.Fprintln(stdout, "topology,pattern,load_fnc,avg_latency_cy,throughput_fnc,saturated")
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
			fmt.Fprintf(stderr, "sweep: [%d/%d] %s load=%.5f latency=%s thr=%.5f sat=%v (%.1fs)\n",
				done, total, name, p.Load, p.LatencyText(1), p.Throughput, p.Saturated, time.Since(start).Seconds())
		}
		var pts []stats.CurvePoint
		if of.Check {
			// Checked sweep: same curve (the checker is inert), plus every
			// invariant violation across the points, in load order.
			var vs []check.Violation
			pts, vs = core.CheckedSweep(sys, pat, loads, b, onPoint)
			for _, v := range vs {
				fmt.Fprintf(stderr, "sweep: INVARIANT VIOLATION [%s]: %s\n", name, v)
			}
			violations += len(vs)
		} else {
			pts = core.SweepWithProgress(sys, pat, loads, b, onPoint)
		}
		series := plot.Series{Name: name}
		for i, p := range pts {
			fmt.Fprintf(stdout, "%s,%s,%.6f,%s,%.6f,%v\n", name, pat, p.Load, p.LatencyText(2), p.Throughput, p.Saturated)
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
		fmt.Fprint(stderr, plot.Chart(title, chart, 72, 18))
	}

	// Observed re-run of the highest-load point: every observer is inert,
	// so its summary matches the sweep's last point exactly. -check already
	// covered the sweep points, so the re-run carries no checker.
	if rf.Topo != "all" && (of.Out != "" || of.Telemetry > 0) {
		sys := core.NewSystem(rf.Topo, rf.Cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		rerun := of
		rerun.Check = false
		s, err := obs.Start(n, &rerun, lg.Printf)
		if err != nil {
			lg.Print(err)
			return 1
		}
		last := len(loads) - 1
		res := n.Run(
			fabric.TrafficSpec{Pattern: pat, Rate: loads[last], Seed: b.Seed + uint64(last), Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)
		s.Finish()
		lg.Printf("instrumented %s @ load %.5f: %s", rf.Topo, loads[last], res.Summary)
		if err := s.Emit(man, stderr); err != nil {
			lg.Print(err)
			return 1
		}
	} else if man != nil {
		if err := obs.WriteManifest(man, of.Out); err != nil {
			lg.Print(err)
			return 1
		}
		lg.Printf("wrote manifest to %s", filepath.Join(of.Out, "manifest.json"))
	}
	if of.Check {
		if violations > 0 {
			lg.Printf("conformance: %d invariant violation(s) across the sweep", violations)
			return 1
		}
		lg.Printf("conformance clean across %d checked point(s)", total)
	}
	return 0
}
