package stats

import (
	"strings"
	"testing"
)

// Edge-case tests for the exact-percentile latency reservoir: the
// default-cap fallback, the exact-fill and first-overflow boundaries
// (n == cap and n == cap+1), nearest-rank behavior under ties, and the
// resize-after-collection guard.

// fill ejects n measured packets with the given latencies (latency i is
// lats[i] cycles: created at 100, ejected at 100+lats[i]).
func fill(c *Collector, lats []uint64) {
	for _, l := range lats {
		p := pkt(100, 100, 100+l, 1, 1, true)
		c.OnCreated(p)
		c.OnEjected(p, 100+l)
	}
}

func TestReservoirDefaultCap(t *testing.T) {
	c := NewCollector(4, 100, 200)
	if got := c.reservoirCap(); got != LatencyReservoirCap {
		t.Fatalf("zero ReservoirCap: effective cap = %d, want %d", got, LatencyReservoirCap)
	}
	// Non-positive SetReservoirCap keeps the default.
	c.SetReservoirCap(0)
	if got := c.reservoirCap(); got != LatencyReservoirCap {
		t.Fatalf("SetReservoirCap(0): effective cap = %d, want %d", got, LatencyReservoirCap)
	}
	c.SetReservoirCap(-5)
	if got := c.reservoirCap(); got != LatencyReservoirCap {
		t.Fatalf("SetReservoirCap(-5): effective cap = %d, want %d", got, LatencyReservoirCap)
	}
	c.SetReservoirCap(8)
	if got := c.reservoirCap(); got != 8 {
		t.Fatalf("SetReservoirCap(8): effective cap = %d, want 8", got)
	}
}

// TestReservoirExactFill pins the n == cap boundary: a run that fills
// the reservoir exactly is NOT truncated and its percentiles cover
// every packet.
func TestReservoirExactFill(t *testing.T) {
	c := NewCollector(4, 100, 1000)
	c.SetReservoirCap(8)
	fill(c, []uint64{10, 20, 30, 40, 50, 60, 70, 80})
	s := c.Summary()
	if s.Packets != 8 {
		t.Fatalf("Packets = %d, want 8", s.Packets)
	}
	if s.Truncated {
		t.Fatal("n == cap must not report Truncated")
	}
	if s.PctSamples != 8 {
		t.Fatalf("PctSamples = %d, want 8", s.PctSamples)
	}
	// Nearest-rank over all 8: p50 rank 4 -> 40, p95/p99 rank 8 -> 80.
	if s.P50Latency != 40 || s.P95Latency != 80 || s.P99Exact != 80 {
		t.Fatalf("percentiles = %d/%d/%d, want 40/80/80", s.P50Latency, s.P95Latency, s.P99Exact)
	}
}

// TestReservoirOverflowByOne pins the n == cap+1 boundary: the first
// packet past the cap flips Truncated, the exact percentiles cover only
// the retained prefix, and the whole-run aggregates (mean, max, bucket
// p99) still see the dropped packet.
func TestReservoirOverflowByOne(t *testing.T) {
	c := NewCollector(4, 100, 10000)
	c.SetReservoirCap(8)
	fill(c, []uint64{10, 20, 30, 40, 50, 60, 70, 80})
	// The ninth packet has a far larger latency than anything retained.
	fill(c, []uint64{5000})
	s := c.Summary()
	if s.Packets != 9 {
		t.Fatalf("Packets = %d, want 9", s.Packets)
	}
	if !s.Truncated {
		t.Fatal("n == cap+1 must report Truncated")
	}
	if s.PctSamples != 8 {
		t.Fatalf("PctSamples = %d, want cap (8)", s.PctSamples)
	}
	// Exact percentiles only know the first 8 ejections...
	if s.P99Exact != 80 {
		t.Fatalf("P99Exact = %d, want 80 (reservoir prefix only)", s.P99Exact)
	}
	// ...but the aggregates over every packet still include the outlier.
	if s.MaxLatency != 5000 {
		t.Fatalf("MaxLatency = %d, want 5000", s.MaxLatency)
	}
	if s.P99Latency < 5000 {
		t.Fatalf("bucket P99Latency = %d, want >= 5000 (covers whole run)", s.P99Latency)
	}
	wantAvg := float64(10+20+30+40+50+60+70+80+5000) / 9
	if !ApproxEqual(s.AvgLatency, wantAvg, 1e-9) {
		t.Fatalf("AvgLatency = %v, want %v", s.AvgLatency, wantAvg)
	}
	// The truncation is surfaced in the one-line rendering too.
	if want := "[pct over first 8]"; !strings.Contains(s.String(), want) {
		t.Fatalf("String() = %q, want it to contain %q", s.String(), want)
	}
}

// TestPercentileTies pins nearest-rank behavior when the rank lands
// exactly on a tie boundary: with ten 10s followed by ten 20s, the p50
// rank (10 of 20) selects the last of the low run, not the first of the
// high run.
func TestPercentileTies(t *testing.T) {
	c := NewCollector(4, 100, 1000)
	var lats []uint64
	for i := 0; i < 10; i++ {
		lats = append(lats, 10)
	}
	for i := 0; i < 10; i++ {
		lats = append(lats, 20)
	}
	fill(c, lats)
	s := c.Summary()
	if s.P50Latency != 10 {
		t.Fatalf("P50 over [10x10, 10x20] = %d, want 10 (nearest rank at the tie boundary)", s.P50Latency)
	}
	if s.P95Latency != 20 || s.P99Exact != 20 {
		t.Fatalf("P95/P99 = %d/%d, want 20/20", s.P95Latency, s.P99Exact)
	}

	// All-equal sample: every percentile is the common value.
	c2 := NewCollector(4, 100, 1000)
	fill(c2, []uint64{7, 7, 7, 7, 7})
	s2 := c2.Summary()
	if s2.P50Latency != 7 || s2.P95Latency != 7 || s2.P99Exact != 7 || s2.MaxLatency != 7 {
		t.Fatalf("all-ties percentiles = %d/%d/%d max %d, want all 7",
			s2.P50Latency, s2.P95Latency, s2.P99Exact, s2.MaxLatency)
	}
}

// TestSetReservoirCapAfterCollectionPanics pins the resize guard: once
// a latency has been retained, resizing must panic rather than silently
// change which prefix the percentiles cover.
func TestSetReservoirCapAfterCollectionPanics(t *testing.T) {
	c := NewCollector(4, 100, 1000)
	fill(c, []uint64{10})
	defer func() {
		if recover() == nil {
			t.Fatal("SetReservoirCap after collection must panic")
		}
	}()
	c.SetReservoirCap(4)
}

// TestReservoirGrowsPastItsReserve: the reservoir reserves min(cap, 4096)
// entries and grows by append, so a run that measures more than the
// reserve still keeps every latency up to the cap, and a cap under the
// reserve is one exact-size allocation.
func TestReservoirGrowsPastItsReserve(t *testing.T) {
	c := NewCollector(4, 100, 1<<20)
	lats := make([]uint64, 5000)
	for i := range lats {
		lats[i] = uint64(i + 1)
	}
	fill(c, lats[:1])
	if cap(c.lat) != 4096 {
		t.Fatalf("default cap reserves %d entries, want 4096", cap(c.lat))
	}
	fill(c, lats[1:])
	if s := c.Summary(); s.PctSamples != 5000 || s.Truncated || s.P50Latency != 2500 || s.P99Exact != 4950 {
		t.Fatalf("5000 measured packets under the default cap: %+v", s)
	}
	small := NewCollector(4, 100, 1<<20)
	small.SetReservoirCap(8)
	fill(small, lats[:9])
	if s := small.Summary(); cap(small.lat) != 8 || s.PctSamples != 8 || !s.Truncated {
		t.Fatalf("cap 8: reserved %d, %+v", cap(small.lat), s)
	}
}
