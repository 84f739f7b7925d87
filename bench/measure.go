package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what one timed region cost the host.
type cost struct {
	WallS      float64 // wall seconds
	CPUS       float64 // process user+sys CPU seconds (getrusage)
	Mallocs    uint64  // MemStats.Mallocs delta
	AllocBytes uint64  // MemStats.TotalAlloc delta
}

// timed runs f and reports its host cost. The MemStats reads bracket the
// clock reads so their stop-the-world pauses stay outside the wall time.
func timed(f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return cost{
		WallS:      wall,
		CPUS:       c1 - c0,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// Rusage would show as a zero metric, which the driver rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the program's resident-set high-water mark in MiB: VmHWM
// from /proc/self/status, which starts afresh at exec. ru_maxrss does not
// (a child inherits its launcher's peak across fork and exec, so under a
// 12 MB Python driver every small workload read 11.957 MB); it is only the
// fallback where /proc is unreadable. Both are in KiB on Linux.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(rusage().Maxrss) / 1024
}

// dist summarizes the samples of one metric within a run. With fewer than
// eleven samples no tail percentile is meaningful, so only the quartiles
// and extremes are kept.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// quantile interpolates linearly between order statistics of a sorted
// slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 { return summarize(xs).Median }
