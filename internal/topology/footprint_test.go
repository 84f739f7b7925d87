package topology

import (
	"runtime"
	"testing"

	"ownsim/internal/power"
)

// An OptXB-1024 crossbar holds 65 280 sbus writers and as many router
// output ports, so what each costs is what the build costs: writers
// carved from per-channel blocks, each writer VC's queue one intrusive
// FIFO pointer and a one-byte count whatever its depth, output ports held
// by value, input-side tables sized by the inputs actually connected, and
// 12-byte DOT edges. Both counts are deterministic for a single-goroutine
// build: 23 929 allocations of 15.8 MB on a 64-bit host, held here with
// a margin of about 2 k allocations and 1.2 MB. The one-object-per-port
// layout made 285 k allocations and 64 MB, and writer rings of depth
// flit pointers 24.3 MB.
func TestOptXB1024Footprint(t *testing.T) {
	const maxAllocs, maxMB = 26_000, 17
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := BuildOptXB(Params{Cores: 1024, Meter: power.NewMeter(nil)})
	runtime.ReadMemStats(&after)
	allocs, mb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(n)
	t.Logf("OptXB-1024 build: %d allocations, %.1f MB allocated, %.1f MB live", allocs, mb, live)
	if allocs > maxAllocs || mb > maxMB {
		t.Errorf("OptXB-1024 build made %d allocations of %.1f MB, want <= %d and <= %d MB", allocs, mb, maxAllocs, maxMB)
	}
}
