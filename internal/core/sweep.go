package core

import (
	"fmt"
	"runtime"
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
	// ReservoirCap sizes the exact-percentile latency reservoir per run;
	// 0 keeps stats.LatencyReservoirCap.
	ReservoirCap int
}

// FullBudget is the default used by cmd/paper.
func FullBudget() Budget {
	return Budget{Warmup: 3000, Measure: 12000, Loads: 8, Seed: 1}
}

// QuickBudget is a reduced budget for tests and benchmarks; trends are
// preserved but confidence intervals are wider.
func QuickBudget() Budget {
	return Budget{Warmup: 800, Measure: 2500, Loads: 5, Seed: 1}
}

// ParallelMap runs f(0..n-1) across GOMAXPROCS workers. Every simulation
// is an independent single-threaded network, so sweeps parallelize
// perfectly — this is where the repository uses host parallelism.
func ParallelMap(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
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
	return sweep(pattern, loads, b, onPoint, func(_ int, ts fabric.TrafficSpec, rs fabric.RunSpec) fabric.Result {
		return sys.Run(ts, rs)
	})
}

// CheckedSweep is SweepWithProgress with the conformance checker
// installed on every point (System.RunChecked). It returns the curve in
// load order plus every violation detected across the sweep, also
// concatenated in load order so campaign reports stay deterministic. The
// curve itself is bit-identical to an unchecked sweep's.
func CheckedSweep(sys System, pattern traffic.Pattern, loads []float64, b Budget, onPoint func(i int, p stats.CurvePoint)) ([]stats.CurvePoint, []check.Violation) {
	perPoint := make([][]check.Violation, len(loads))
	points := sweep(pattern, loads, b, onPoint, func(i int, ts fabric.TrafficSpec, rs fabric.RunSpec) (res fabric.Result) {
		res, perPoint[i] = sys.RunChecked(ts, rs)
		return res
	})
	var all []check.Violation
	for _, vs := range perPoint {
		all = append(all, vs...)
	}
	return points, all
}

// sweep runs point i of the load axis through run, in parallel, with seed
// b.Seed+i, and assembles the curve in load order.
func sweep(pattern traffic.Pattern, loads []float64, b Budget, onPoint func(i int, p stats.CurvePoint),
	run func(i int, ts fabric.TrafficSpec, rs fabric.RunSpec) fabric.Result) []stats.CurvePoint {
	points := make([]stats.CurvePoint, len(loads))
	ParallelMap(len(loads), func(i int) {
		res := run(i,
			fabric.TrafficSpec{Pattern: pattern, Rate: loads[i], Seed: b.Seed + uint64(i)},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure, ReservoirCap: b.ReservoirCap},
		)
		points[i] = stats.CurvePoint{
			Load:       loads[i],
			Latency:    res.AvgLatency,
			Throughput: res.Throughput,
			Saturated:  !res.Drained,
		}
		if onPoint != nil {
			onPoint(i, points[i])
		}
	})
	return points
}

// SaturationThroughput sweeps to saturation and reports the accepted
// throughput plateau (the paper's Figure 7a / 8a metric).
func SaturationThroughput(sys System, pattern traffic.Pattern, b Budget) float64 {
	loads := SweepLoads(sys.Cores, b.Loads)
	return stats.SaturationThroughput(Sweep(sys, pattern, loads, b))
}
