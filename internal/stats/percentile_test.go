package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fill ejects n measured packets with the given latencies (latency i is
// lats[i] cycles: created at 100, ejected at 100+lats[i]).
func fill(c *Collector, lats []uint64) {
	for _, l := range lats {
		p := pkt(100, 100, 100+l, 1, 1, true)
		c.OnCreated(p)
		c.OnEjected(p, 100+l)
	}
}

// repeat returns n latencies of l cycles.
func repeat(l uint64, n int) []uint64 {
	lats := make([]uint64, n)
	for i := range lats {
		lats[i] = l
	}
	return lats
}

// FuzzPercentiles: whatever latencies a run measures, in whatever order,
// P50/P95/P99 are the nearest ranks of the sorted list and MaxLatency its
// last entry. Each pair of input bytes is one latency (0-65535 cycles),
// so the counts grow past their first size many times over.
func FuzzPercentiles(f *testing.F) {
	latencies := func(lats ...uint16) []byte {
		b := make([]byte, 0, 2*len(lats))
		for _, l := range lats {
			b = binary.LittleEndian.AppendUint16(b, l)
		}
		return b
	}
	f.Add(latencies())              // the empty run
	f.Add(latencies(42))            // one packet
	f.Add(latencies(7, 7, 7, 7, 7)) // all ties
	f.Add(latencies(10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
		20, 20, 20, 20, 20, 20, 20, 20, 20, 20)) // p50's rank ends the low run
	f.Fuzz(func(t *testing.T, b []byte) {
		lats := make([]uint64, len(b)/2)
		for i := range lats {
			lats[i] = uint64(binary.LittleEndian.Uint16(b[2*i:]))
		}
		c := NewCollector(4, 100, 1000)
		fill(c, lats)
		got := c.Summary()

		sorted := slices.Clone(lats)
		slices.Sort(sorted)
		rank := func(q float64) uint64 {
			if len(sorted) == 0 {
				return 0
			}
			return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
		}
		want := Summary{Packets: uint64(len(sorted)), P50Latency: rank(0.50), P95Latency: rank(0.95), P99Latency: rank(0.99)}
		if len(sorted) > 0 {
			want.MaxLatency = sorted[len(sorted)-1]
		}
		if got.Packets != want.Packets || got.P50Latency != want.P50Latency || got.P95Latency != want.P95Latency ||
			got.P99Latency != want.P99Latency || got.MaxLatency != want.MaxLatency {
			t.Fatalf("%d latencies: pkts/p50/p95/p99/max = %d/%d/%d/%d/%d, nearest rank %d/%d/%d/%d/%d",
				len(lats), got.Packets, got.P50Latency, got.P95Latency, got.P99Latency, got.MaxLatency,
				want.Packets, want.P50Latency, want.P95Latency, want.P99Latency, want.MaxLatency)
		}
	})
}

// TestPercentilesCoverEveryPacket: a run's slow tail counts however many
// packets came before it. 70 000 packets whose last 5 000 are slow put
// ranks 66 500 (p95) and 69 300 (p99) in the slow tail; a percentile over
// only a prefix of the run would read the fast packets.
func TestPercentilesCoverEveryPacket(t *testing.T) {
	c := NewCollector(4, 100, 1000)
	fill(c, repeat(10, 65000))
	fill(c, repeat(900, 5000))
	if s := c.Summary(); s.Packets != 70000 || s.P50Latency != 10 || s.P95Latency != 900 || s.P99Latency != 900 {
		t.Fatalf("pkts=%d p50=%d p95=%d p99=%d, want 70000/10/900/900", s.Packets, s.P50Latency, s.P95Latency, s.P99Latency)
	}
}

// TestPercentileTies pins nearest-rank behavior when the rank lands
// exactly on a tie boundary: with ten 10s followed by ten 20s, the p50
// rank (10 of 20) selects the last of the low run, not the first of the
// high run.
func TestPercentileTies(t *testing.T) {
	c := NewCollector(4, 100, 1000)
	fill(c, append(repeat(10, 10), repeat(20, 10)...))
	s := c.Summary()
	if s.P50Latency != 10 {
		t.Fatalf("P50 over [10x10, 10x20] = %d, want 10 (nearest rank at the tie boundary)", s.P50Latency)
	}
	if s.P95Latency != 20 || s.P99Latency != 20 {
		t.Fatalf("P95/P99 = %d/%d, want 20/20", s.P95Latency, s.P99Latency)
	}

	// All-equal sample: every percentile is the common value.
	c2 := NewCollector(4, 100, 1000)
	fill(c2, []uint64{7, 7, 7, 7, 7})
	s2 := c2.Summary()
	if s2.P50Latency != 7 || s2.P95Latency != 7 || s2.P99Latency != 7 || s2.MaxLatency != 7 {
		t.Fatalf("all-ties percentiles = %d/%d/%d max %d, want all 7",
			s2.P50Latency, s2.P95Latency, s2.P99Latency, s2.MaxLatency)
	}
}

// TestCountsGrowByDoubling: the counts start at 1 024 latencies and
// double to cover the longest one, keeping every count they held, so a
// run's first packets still weigh in its percentiles.
func TestCountsGrowByDoubling(t *testing.T) {
	c := NewCollector(4, 100, 1<<20)
	lats := make([]uint64, 5000)
	for i := range lats {
		lats[i] = uint64(i + 1)
	}
	fill(c, lats[:1])
	if len(c.latCount) != 1024 {
		t.Fatalf("one packet: %d counts, want 1024", len(c.latCount))
	}
	fill(c, lats[1:])
	if len(c.latCount) != 8192 {
		t.Fatalf("longest latency 5000: %d counts, want 8192", len(c.latCount))
	}
	if s := c.Summary(); s.Packets != 5000 || s.P50Latency != 2500 || s.P95Latency != 4750 || s.P99Latency != 4950 {
		t.Fatalf("latencies 1..5000: %+v", s)
	}
}
