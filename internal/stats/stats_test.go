package stats

import (
	"math"
	"strings"
	"testing"

	"ownsim/internal/noc"
)

func pkt(created, injected, ejected uint64, flits, hops int, measure bool) *noc.Packet {
	return &noc.Packet{
		CreatedAt: created, InjectedAt: injected, EjectedAt: ejected,
		NumFlits: flits, Hops: hops, Measure: measure,
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(4, 100, 200)
	p1 := pkt(100, 105, 150, 5, 3, true)
	p2 := pkt(110, 110, 180, 5, 2, true)
	c.OnCreated(p1)
	c.OnCreated(p2)
	c.OnEjected(p1, 150)
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	c.OnEjected(p2, 180)
	s := c.Summary()
	if s.Packets != 2 {
		t.Fatalf("Packets = %d", s.Packets)
	}
	wantAvg := (50.0 + 70.0) / 2
	if math.Abs(s.AvgLatency-wantAvg) > 1e-9 {
		t.Fatalf("AvgLatency = %v, want %v", s.AvgLatency, wantAvg)
	}
	if s.MaxLatency != 70 {
		t.Fatalf("MaxLatency = %d", s.MaxLatency)
	}
	if s.MaxHops != 3 || math.Abs(s.AvgHops-2.5) > 1e-9 {
		t.Fatalf("hops: avg %v max %d", s.AvgHops, s.MaxHops)
	}
	// Throughput: 10 flits over 100-cycle window across 4 nodes.
	if math.Abs(s.Throughput-10.0/100/4) > 1e-12 {
		t.Fatalf("Throughput = %v", s.Throughput)
	}
}

func TestUnmeasuredPacketsCountOnlyWindowFlits(t *testing.T) {
	c := NewCollector(2, 100, 200)
	warm := pkt(50, 50, 150, 5, 1, false) // ejects inside window
	c.OnCreated(warm)
	c.OnEjected(warm, 150)
	s := c.Summary()
	if s.Packets != 0 {
		t.Fatal("unmeasured packet counted in latency stats")
	}
	if s.Throughput == 0 {
		t.Fatal("window flits should count toward throughput")
	}
	if c.Pending() != 0 {
		t.Fatal("unmeasured packets must not pend")
	}
}

func TestEjectionOutsideWindowExcludedFromThroughput(t *testing.T) {
	c := NewCollector(2, 100, 200)
	late := pkt(150, 150, 250, 5, 1, true)
	c.OnCreated(late)
	c.OnEjected(late, 250)
	s := c.Summary()
	if s.Throughput != 0 {
		t.Fatalf("Throughput = %v, want 0 (ejected after window)", s.Throughput)
	}
	if s.Packets != 1 {
		t.Fatal("measured packet should still contribute latency")
	}
}

func TestP99Estimate(t *testing.T) {
	c := NewCollector(1, 0, 1000)
	// Nearest-rank p99 of 100 samples is rank 99; with 97 fast and 3
	// slow packets, rank 99 lands on a slow one.
	for i := 0; i < 97; i++ {
		p := pkt(0, 0, 10, 1, 1, true)
		c.OnCreated(p)
		c.OnEjected(p, 10)
	}
	for i := 0; i < 3; i++ {
		slow := pkt(0, 0, 900, 1, 1, true)
		c.OnCreated(slow)
		c.OnEjected(slow, 900)
	}
	s := c.Summary()
	if s.P99Latency != 900 {
		t.Fatalf("P99 = %d, want 900", s.P99Latency)
	}
}

// A run that measured no packet has no latency or hop count: String says
// n/a there instead of printing zeros as if they were measured, and keeps
// the packet count and throughput. One packet prints every field.
func TestSummaryString(t *testing.T) {
	one := NewCollector(4, 100, 200)
	p := pkt(100, 105, 150, 5, 3, true)
	one.OnCreated(p)
	one.OnEjected(p, 150)
	for _, tc := range []struct {
		name string
		s    Summary
		want string
	}{
		{"no packets", NewCollector(1, 0, 10).Summary(),
			"pkts=0 avgLat=n/a p50=n/a p95=n/a p99=n/a maxLat=n/a avgHops=n/a thr=0.0000 f/n/c"},
		{"no packets, flits in the window", Summary{Throughput: 0.0125},
			"pkts=0 avgLat=n/a p50=n/a p95=n/a p99=n/a maxLat=n/a avgHops=n/a thr=0.0125 f/n/c"},
		{"one packet", one.Summary(),
			"pkts=1 avgLat=50.0 p50=50 p95=50 p99=50 maxLat=50 avgHops=3.00 thr=0.0125 f/n/c"},
		{"saturated", Summary{Packets: 7, AvgLatency: 1593.8, P50Latency: 1148, MaxLatency: 4000, AvgHops: 3.5, Throughput: 0.0100, Offered: 0.0125},
			"pkts=7 saturated avgHops=3.50 thr=0.0100 f/n/c"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}

func TestInvalidWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(1, 100, 100)
}

func TestSaturationLoadInterpolation(t *testing.T) {
	pts := []CurvePoint{
		{Load: 0.05, Latency: 20},
		{Load: 0.10, Latency: 22},
		{Load: 0.20, Latency: 30},
		{Load: 0.30, Latency: 90}, // crosses 3x20=60 between 0.2 and 0.3
		{Load: 0.40, Latency: 500, Saturated: true},
	}
	got := SaturationLoad(pts, 3.0)
	want := 0.2 + (60.0-30.0)/(90.0-30.0)*0.1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("SaturationLoad = %v, want %v", got, want)
	}
}

func TestApproxHelpers(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-10, 1e-9) || ApproxEqual(1.0, 1.1, 1e-9) {
		t.Error("ApproxEqual tolerance misbehaves")
	}
	if !ApproxEqual(2.5, 2.5, 0) {
		t.Error("ApproxEqual with zero tolerance rejects exact equality")
	}
	if !ApproxZero(-1e-12, 1e-9) || ApproxZero(0.5, 1e-9) {
		t.Error("ApproxZero tolerance misbehaves")
	}
}

func TestSaturationLoadNoCrossing(t *testing.T) {
	pts := []CurvePoint{{Load: 0.1, Latency: 20}, {Load: 0.2, Latency: 25}}
	if got := SaturationLoad(pts, 3.0); got != 0.2 {
		t.Fatalf("got %v, want highest sampled load", got)
	}
}

func TestSaturationLoadSaturatedPoint(t *testing.T) {
	pts := []CurvePoint{
		{Load: 0.1, Latency: 20},
		{Load: 0.2, Latency: 20, Saturated: true},
	}
	if got := SaturationLoad(pts, 3.0); got != 0.1 {
		t.Fatalf("got %v, want 0.1 (previous load)", got)
	}
}

func TestSaturationLoadEmpty(t *testing.T) {
	if SaturationLoad(nil, 3.0) != 0 {
		t.Fatal("empty input should yield 0")
	}
}

func TestSaturationThroughput(t *testing.T) {
	pts := []CurvePoint{
		{Throughput: 0.1}, {Throughput: 0.34}, {Throughput: 0.33},
	}
	if got := SaturationThroughput(pts); got != 0.34 {
		t.Fatalf("got %v", got)
	}
}

// CapacityLoad returns a grid load, never one between two points: the
// last one before the first failing point, or the first when that fails.
func TestCapacityLoad(t *testing.T) {
	// pt is a grid point whose verdict is its window's accepted vs.
	// offered flits; its nominal load plays no part.
	pt := func(load, accepted, offered float64) CurvePoint {
		return CurvePoint{Load: load, Throughput: accepted, Saturated: Summary{Throughput: accepted, Offered: offered}.Saturated()}
	}
	ok := func(load float64) CurvePoint { return pt(load, load, load) }
	cases := []struct {
		name string
		pts  []CurvePoint
		want float64
	}{
		{"first fails on throughput", []CurvePoint{pt(0.1, 0.09, 0.1), ok(0.2)}, 0.1},
		// 0.3 accepts 0.25 of 0.3 offered (< 0.92): interpolating the
		// crossing would give a load between 0.2 and 0.3.
		{"fails between grid points", []CurvePoint{ok(0.1), ok(0.2), pt(0.3, 0.25, 0.3), pt(0.4, 0.26, 0.4)}, 0.2},
		{"saturated after good points", []CurvePoint{ok(0.1), pt(0.2, 0.1, 0.2)}, 0.1},
		{"a later good point does not count", []CurvePoint{ok(0.1), pt(0.2, 0.1, 0.2), ok(0.3)}, 0.1},
		{"exactly frac passes", []CurvePoint{ok(0.1), pt(0.5, 0.46, 0.5)}, 0.5},
		// A low draw: nominal load 0.00293 offered only 0.00263, all of
		// which the network accepted. Against the nominal load it would
		// fail (0.00265 < 0.92 x 0.00293); against what was offered it
		// carries the load.
		{"a low draw counts", []CurvePoint{ok(0.00171), pt(0.00293, 0.00265, 0.00263), pt(0.00415, 0.0031, 0.0041)}, 0.00293},
	}
	for _, c := range cases {
		if got := CapacityLoad(c.pts); got != c.want {
			t.Errorf("%s: CapacityLoad = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSaturatedVerdict pins the verdict's edges: accepting exactly 0.92 of
// what was offered is not saturated, a hair less is, and a window that
// offered nothing cannot be.
func TestSaturatedVerdict(t *testing.T) {
	for _, c := range []struct {
		accepted, offered float64
		want              bool
	}{
		{0.46, 0.5, false},
		{0.4599, 0.5, true},
		{0.5, 0.5, false},
		{0.00265, 0.00263, false},
		{0, 0, false},
		{0, 0.001, true},
	} {
		if got := (Summary{Throughput: c.accepted, Offered: c.offered}).Saturated(); got != c.want {
			t.Errorf("accepted %v of %v offered: Saturated = %v, want %v", c.accepted, c.offered, got, c.want)
		}
	}
}

// TestOfferedCountsDrops pins that Offered counts every measured packet
// generated, dropped ones included, while Pending counts only admitted
// ones.
func TestOfferedCountsDrops(t *testing.T) {
	c := NewCollector(2, 100, 200)
	in := pkt(100, 101, 150, 5, 1, true)
	dropped := pkt(100, 101, 150, 5, 1, true)
	warm := pkt(90, 91, 150, 5, 1, false)
	c.OnCreated(in)
	c.OnDropped(dropped)
	c.OnDropped(warm)
	c.OnEjected(in, 150)
	s := c.Summary()
	if want := 10.0 / 100 / 2; s.Offered != want {
		t.Fatalf("Offered = %v, want %v (admitted and dropped measured flits)", s.Offered, want)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0: a dropped packet is not in flight", c.Pending())
	}
	if !s.Saturated() {
		t.Fatalf("accepted %v of %v offered: want saturated", s.Throughput, s.Offered)
	}
}

func TestCapacityLoadAllGood(t *testing.T) {
	pts := []CurvePoint{
		{Load: 0.1, Throughput: 0.1},
		{Load: 0.2, Throughput: 0.2},
	}
	if got := CapacityLoad(pts); got != 0.2 {
		t.Fatalf("got %v, want highest load", got)
	}
	if CapacityLoad(nil) != 0 {
		t.Fatal("empty input should yield 0")
	}
}

func TestCapacityLoadFirstPointSaturated(t *testing.T) {
	pts := []CurvePoint{{Load: 0.1, Throughput: 0.01, Saturated: true}}
	if got := CapacityLoad(pts); got != 0.1 {
		t.Fatalf("got %v (degenerate case returns first load)", got)
	}
}

func TestExactPercentilesKnownDistribution(t *testing.T) {
	c := NewCollector(1, 0, 1000)
	// Latencies 1..100 in order: nearest-rank p50=50, p95=95, p99=99.
	for i := uint64(1); i <= 100; i++ {
		p := pkt(0, 0, i, 1, 1, true)
		c.OnCreated(p)
		c.OnEjected(p, i)
	}
	s := c.Summary()
	if s.P50Latency != 50 || s.P95Latency != 95 || s.P99Latency != 99 {
		t.Fatalf("percentiles p50=%d p95=%d p99=%d, want 50/95/99",
			s.P50Latency, s.P95Latency, s.P99Latency)
	}
}

func TestExactPercentilesUnsortedInput(t *testing.T) {
	c := NewCollector(1, 0, 1000)
	// Ejection order is not latency order.
	for _, lat := range []uint64{40, 7, 99, 12, 63} {
		p := pkt(0, 0, lat, 1, 1, true)
		c.OnCreated(p)
		c.OnEjected(p, lat)
	}
	s := c.Summary()
	if s.P50Latency != 40 {
		t.Fatalf("p50 = %d, want 40 (rank 3 of 5)", s.P50Latency)
	}
	if s.P95Latency != 99 || s.P99Latency != 99 {
		t.Fatalf("tail percentiles %d/%d, want 99/99", s.P95Latency, s.P99Latency)
	}
	// Summary reads the counts and leaves them as they were.
	again := c.Summary()
	if again != s {
		t.Fatal("Summary() is not idempotent")
	}
}

func TestPercentileSingleSample(t *testing.T) {
	c := NewCollector(1, 0, 100)
	p := pkt(0, 0, 42, 1, 1, true)
	c.OnCreated(p)
	c.OnEjected(p, 42)
	s := c.Summary()
	if s.P50Latency != 42 || s.P95Latency != 42 || s.P99Latency != 42 {
		t.Fatalf("single-sample percentiles = %d/%d/%d, want all 42",
			s.P50Latency, s.P95Latency, s.P99Latency)
	}
}

func TestPercentilesZeroPackets(t *testing.T) {
	s := NewCollector(1, 0, 100).Summary()
	if s.P50Latency != 0 || s.P95Latency != 0 || s.P99Latency != 0 || s.MaxLatency != 0 {
		t.Fatalf("empty run percentiles nonzero: %+v", s)
	}
}

func TestSummaryStringIncludesPercentiles(t *testing.T) {
	c := NewCollector(1, 0, 100)
	p := pkt(0, 0, 10, 1, 1, true)
	c.OnCreated(p)
	c.OnEjected(p, 10)
	out := c.Summary().String()
	for _, want := range []string{"p50=10", "p95=10", "p99=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}
