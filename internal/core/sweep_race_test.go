package core

import (
	"fmt"
	"runtime"
	"testing"

	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// TestSweepUnderRace exercises the ParallelMap sweep path so the race
// detector (CI runs `go test -race ./...`) can observe the worker pool:
// workers must write disjoint result slots and every network must own
// its RNGs — any shared-RNG aliasing between sweep points shows up here.
// Two workers share five points, so one of them runs at least three and
// rewinds its network while the other worker is running.
func TestSweepUnderRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	loads := SweepLoads(256, 5)
	b := Budget{Warmup: 200, Measure: 800, Loads: 5, Seed: 5}
	pts := Sweep(sys, traffic.Uniform, loads, b)
	if len(pts) != 5 {
		t.Fatalf("want 5 sweep points, got %d", len(pts))
	}
	for i, p := range pts {
		if p.Throughput <= 0 {
			t.Errorf("point %d: no accepted throughput: %+v", i, p)
		}
	}
}

// TestSweepDeterministicAcrossGOMAXPROCS pins the reproducibility
// contract at the sweep level: the same Budget.Seed must produce
// byte-identical curves whether the worker pool runs on 1 or 4 procs.
// Sweep seeds each point with Seed+i, so scheduling order must not leak
// into any result.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	loads := SweepLoads(256, 3)
	b := Budget{Warmup: 200, Measure: 1000, Loads: 3, Seed: 11}
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return fmt.Sprintf("%+v", Sweep(sys, traffic.Uniform, loads, b))
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("sweep results depend on GOMAXPROCS:\n  1 proc:  %s\n  4 procs: %s", serial, parallel)
	}
}
