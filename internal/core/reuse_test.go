package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// Four unlike runs back to back on one network — the first cut off past
// saturation with flits in every buffer — must each read what a fresh
// build reads, power included and exactly: a rewound network is the built
// one. fabric.DiffRuns holds one reuse per call against the delivery log;
// this holds a sequence, on every system, against everything a Result and
// the engine report.
func TestReuseFourSpecsOnOneNetworkMatchFreshBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("eighty 256- and 1024-core sims in -short mode")
	}
	for _, cores := range []int{256, 1024} {
		sat := topology.UniformSaturationLoad(cores)
		specs := []struct {
			pattern traffic.Pattern
			load    float64
			drain   uint64
		}{
			{traffic.Uniform, 1.2 * sat, 1},
			{traffic.Transpose, 0.5 * sat, 0},
			{traffic.Uniform, 0.1 * sat, 0},
			{traffic.BitReversal, 0.9 * sat, 0},
		}
		for _, name := range SystemNames() {
			sys := NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			reused := sys.Build(power.NewMeter(nil))
			for i, sp := range specs {
				ts := fabric.TrafficSpec{Pattern: sp.pattern, Rate: sp.load, Seed: uint64(3 + i), Policy: sys.Policy, Classify: sys.Classify}
				rs := fabric.RunSpec{Warmup: 800, Measure: 2500, DrainBudget: sp.drain}
				fresh := sys.Build(power.NewMeter(nil))
				want, got := fresh.Run(ts, rs), reused.Run(ts, rs)
				if got != want || reused.Eng.Cycle() != fresh.Eng.Cycle() {
					t.Fatalf("%s-%d, run %d on one network:\n got  %+v %+v after %d cycles\n want %+v %+v after %d cycles",
						name, cores, i, got, got.Power, reused.Eng.Cycle(), want, want.Power, fresh.Eng.Cycle())
				}
				if err := reused.CheckInvariants(); err != nil {
					t.Fatalf("%s-%d, run %d on one network: %v", name, cores, i, err)
				}
				if i == 0 && (want.Drained || reused.BufferedFlits() == 0) {
					t.Fatalf("%s-%d: the first run left nothing behind: drained %v, %d flits buffered", name, cores, want.Drained, reused.BufferedFlits())
				}
			}
		}
	}
}

// An evaluation builds each network once and simulates each run once: one
// build per row group that misses, counted through the build closure and
// through Census, over the sequence `paper figures` runs — and the rows,
// served ones included, are what a fresh build per run gives: the
// reference is System.Run per point, which shares no network with the path
// it checks.
func TestReuseFiguresBuildEachNetworkOnce(t *testing.T) {
	b := Budget{Warmup: 100, Measure: 400, Loads: 3, Seed: 7}
	var builds atomic.Int64
	e := newEvaluation(b, countingSystems(&builds))
	var last Census
	step := func(what string, simulated, served, built int64) {
		t.Helper()
		c, closures := e.Census(), builds.Swap(0)
		got := Census{c.Simulated - last.Simulated, c.Served - last.Served, c.Built - last.Built}
		if want := (Census{simulated, served, built}); got != want || closures != built {
			t.Fatalf("%s: %+v and %d build closures called, want %+v", what, got, closures, want)
		}
		last = c
	}

	e.Figure5()
	step("Figure5", 2, 0, 2)
	e.Figure6()
	step("Figure6 after 5 (the OWN bars are Figure 5's ideal run)", 4, 1, 4)
	rows7a := e.Figure7a()
	step("Figure7a (one build per pattern and system)", 75, 0, 25)
	if len(rows7a) != 25 {
		t.Fatalf("Figure7a: %d rows, want 25", len(rows7a))
	}
	e.Figure7bc(traffic.Uniform)
	series := e.Figure7bc(traffic.BitReversal)
	step("Figure7b and 7c after 7a", 0, 30, 0)
	patterns := []traffic.Pattern{traffic.Uniform, traffic.BitReversal, traffic.Transpose}
	rows8 := e.Figure8(patterns...)
	step("Figure8 (one build per system)", 15, 0, 5)
	if len(rows8) != 15 {
		t.Fatalf("Figure8: %d rows, want 15", len(rows8))
	}
	if c := e.Census(); c.String() != "plan: 96 runs simulated, 31 served, 36 networks built" {
		t.Fatalf("census line: %q", c)
	}

	loads := SweepLoads(256, b.Loads)
	for i, s := range series {
		pts := freshCurve(NewSystem(s.SystemName, 256, wireless.Config4, wireless.Ideal), traffic.BitReversal, loads, b)
		if len(s.Points) != len(pts) {
			t.Fatalf("Figure7bc %s: %d points, want %d", s.SystemName, len(s.Points), len(pts))
		}
		for j := range pts {
			if s.Points[j] != pts[j] {
				t.Errorf("Figure7bc %s point %d: %+v on the shared network, %+v from a fresh build", s.SystemName, j, s.Points[j], pts[j])
			}
		}
		// Figure 7a's rows are pattern-major; bit reversal is one of them.
		for _, row := range rows7a {
			if row.Pattern == traffic.BitReversal && row.SystemName == s.SystemName && row.Throughput != stats.SaturationThroughput(pts) {
				t.Errorf("Figure7a %s: throughput %v, want the sweep's plateau %v", s.SystemName, row.Throughput, stats.SaturationThroughput(pts))
			}
		}
		if SystemNames()[i] != s.SystemName {
			t.Errorf("Figure7bc series %d is %s: order changed", i, s.SystemName)
		}
	}
	for i, row := range rows8 {
		name, pat := SystemNames()[i%5], patterns[i/5]
		if row.SystemName != name || row.Pattern != pat {
			t.Fatalf("Figure8 row %d is %s/%v, want %s/%v: row order changed", i, row.SystemName, row.Pattern, name, pat)
		}
		if i%5 != 1 && i != 7 {
			continue // fresh OWN-1024 runs for every pattern, and one other system
		}
		res := NewSystem(name, 1024, wireless.Config4, wireless.Ideal).Run(
			fabric.TrafficSpec{Pattern: pat, Rate: 0.3 * topology.UniformSaturationLoad(1024), Seed: b.Seed},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure})
		if row.Throughput != res.Throughput || row.Power != res.Power || row.EnergyPerPacketPJ != EnergyPerPacketPJ(res, 1024) {
			t.Errorf("Figure8 %s/%v: %+v on the shared network, %+v from a fresh build", name, pat, row, res)
		}
	}
}

// freshCurve is the curve Sweep promises, one fresh build per point:
// System.Run with seed b.Seed+i at loads[i].
func freshCurve(sys System, pattern traffic.Pattern, loads []float64, b Budget) []stats.CurvePoint {
	pts := make([]stats.CurvePoint, len(loads))
	for i, load := range loads {
		res := sys.Run(fabric.TrafficSpec{Pattern: pattern, Rate: load, Seed: b.Seed + uint64(i)},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure})
		pts[i] = stats.CurvePoint{Load: load, Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: !res.Drained}
	}
	return pts
}

// A sweep's workers build one network each and rewind it for every later
// point; a checked sweep builds one per point, because a network with a
// checker installed cannot run again. Either way the curve is a fresh
// build per point, field for field, the progress callback fires once per
// point, and the checker finds nothing. The last load is past saturation,
// so a worker's next point starts on a network cut off undrained.
func TestReuseSweepBuildsOneNetworkPerWorker(t *testing.T) {
	b := Budget{Warmup: 200, Measure: 800, Loads: 5, Seed: 13}
	loads := SweepLoads(256, b.Loads)
	loads[4] = 1.5 * topology.UniformSaturationLoad(256)
	var builds atomic.Int64
	sys := countingSystems(&builds)("own", 256, wireless.Config4, wireless.Ideal)
	want := freshCurve(sys, traffic.Uniform, loads, b)
	if !want[4].Saturated {
		t.Fatalf("load %v drained: %+v, want a point past saturation", loads[4], want[4])
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		workers := int64(min(procs, len(loads)))
		calls := make([]atomic.Int64, len(loads))
		onPoint := func(i int, _ stats.CurvePoint) { calls[i].Add(1) }
		for _, checked := range []bool{false, true} {
			builds.Store(0)
			var got []stats.CurvePoint
			var vs []check.Violation
			if checked {
				got, vs = CheckedSweep(sys, traffic.Uniform, loads, b, onPoint)
			} else {
				got = SweepWithProgress(sys, traffic.Uniform, loads, b, onPoint)
			}
			what := fmt.Sprintf("GOMAXPROCS %d, checked %v", procs, checked)
			// A worker that never receives a point builds nothing, so with
			// several workers the count is a bound; one worker builds one.
			lo, hi := int64(1), workers
			if checked {
				lo, hi = int64(len(loads)), int64(len(loads))
			}
			if n := builds.Load(); n < lo || n > hi {
				t.Errorf("%s: %d networks built, want %d..%d", what, n, lo, hi)
			}
			if len(vs) != 0 {
				t.Errorf("%s: %d violations, first %v", what, len(vs), vs[0])
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s:\n got  %+v\n want %+v", what, got, want)
			}
			for i := range calls {
				if c := calls[i].Swap(0); c != 1 {
					t.Errorf("%s: onPoint fired %d times for point %d", what, c, i)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}
