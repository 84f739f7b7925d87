package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/stats"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
)

// Budget sets simulation lengths; figure generators and benchmarks pick
// different budgets.
type Budget struct {
	Warmup  uint64
	Measure uint64
	// Loads is the number of sweep points between 10% and 120% of the
	// theoretical uniform saturation load.
	Loads int
	// Seed decorrelates repeated sweeps.
	Seed uint64
}

// FullBudget is the default used by cmd/paper.
func FullBudget() Budget {
	return Budget{Warmup: 3000, Measure: 12000, Loads: 8, Seed: 1}
}

// runSpec is the run every point under b gets: the one place a Budget
// becomes a fabric.RunSpec.
func (b Budget) runSpec() fabric.RunSpec {
	return fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure}
}

// QuickBudget is a reduced budget for tests and benchmarks; trends are
// preserved but confidence intervals are wider.
func QuickBudget() Budget {
	return Budget{Warmup: 800, Measure: 2500, Loads: 5, Seed: 1}
}

// parallelEach runs f(w, 0..n-1) across min(GOMAXPROCS, n) workers, in
// index order as workers free up. Every simulation is an independent
// single-threaded network, so independent runs parallelize without
// sharing anything: this is where the repository uses host parallelism.
// Each worker has one W, zero at the start and passed to every f it runs:
// a sweep keeps its network there.
func parallelEach[W any](n int, f func(w *W, i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w W
			for i := range next {
				f(&w, i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// SweepLoads returns the load axis for a system: Loads points from 10%
// to 120% of the equalized uniform saturation load for the core count.
func SweepLoads(cores, points int) []float64 {
	sat := topology.UniformSaturationLoad(cores)
	loads := make([]float64, points)
	for i := range loads {
		frac := 0.1 + (1.2-0.1)*float64(i)/float64(points-1)
		loads[i] = sat * frac
	}
	return loads
}

// CheckSweepPoints rejects a point count SweepLoads cannot space: the
// axis interpolates between its two end loads, so it needs both.
func CheckSweepPoints(points int) error {
	if points < 2 {
		return fmt.Errorf("points must be >= 2, got %d", points)
	}
	return nil
}

// Sweep runs the system across the given loads in parallel and returns
// the latency/throughput curve (the paper's Figure 7b/c data).
func Sweep(sys System, pattern traffic.Pattern, loads []float64, b Budget) []stats.CurvePoint {
	return SweepWithProgress(sys, pattern, loads, b, nil)
}

// SweepWithProgress is Sweep with a per-point completion callback for
// progress reporting (cmd/sweep prints one stderr line per finished
// point). onPoint is invoked from the worker goroutines as points
// complete — completion order is nondeterministic, so the callback must
// be safe for concurrent use and must not feed any deterministic
// artifact; the returned slice is always in load order and is the only
// sanctioned result. nil onPoint is allowed.
func SweepWithProgress(sys System, pattern traffic.Pattern, loads []float64, b Budget, onPoint func(i int, p stats.CurvePoint)) []stats.CurvePoint {
	points, _ := sweep(sys, pattern, loads, b, onPoint, false)
	return points
}

// CheckedSweep is SweepWithProgress with the conformance checker
// installed on every point (System.RunChecked). It returns the curve in
// load order plus every violation detected across the sweep, also
// concatenated in load order so campaign reports stay deterministic. The
// curve itself is bit-identical to an unchecked sweep's.
func CheckedSweep(sys System, pattern traffic.Pattern, loads []float64, b Budget, onPoint func(i int, p stats.CurvePoint)) ([]stats.CurvePoint, []check.Violation) {
	return sweep(sys, pattern, loads, b, onPoint, true)
}

// sweep runs point i of the load axis with seed b.Seed+i, in parallel, and
// assembles the curve (and, checked, the violations) in load order. Each
// worker builds one network on its first point and rewinds it for every
// later one (System.run), so a sweep builds at most min(GOMAXPROCS,
// len(loads)) networks and reads what a fresh build per point reads. The
// one exception is a checked point: a network with a checker, probe or
// recorder installed cannot be rewound (fabric: cannot run again), so
// RunChecked builds one per point.
func sweep(sys System, pattern traffic.Pattern, loads []float64, b Budget, onPoint func(i int, p stats.CurvePoint), checked bool) ([]stats.CurvePoint, []check.Violation) {
	points := make([]stats.CurvePoint, len(loads))
	perPoint := make([][]check.Violation, len(loads))
	parallelEach(len(loads), func(n **fabric.Network, i int) {
		ts := fabric.TrafficSpec{Pattern: pattern, Rate: loads[i], Seed: b.Seed + uint64(i)}
		var res fabric.Result
		if checked {
			res, perPoint[i] = sys.RunChecked(ts, b.runSpec())
		} else {
			res = sys.run(n, ts, b.runSpec())
		}
		points[i] = stats.CurvePoint{
			Load:       loads[i],
			Latency:    res.AvgLatency,
			Throughput: res.Throughput,
			Saturated:  res.Saturated(),
		}
		if onPoint != nil {
			onPoint(i, points[i])
		}
	})
	return points, slices.Concat(perPoint...)
}
