// Package stats collects and summarizes network performance metrics:
// per-packet latency (mean, exact percentiles, max), accepted throughput in
// flits/node/cycle, and saturation analysis over load-latency curves.
//
// Methodology follows the paper's cycle-accurate evaluation: a warmup
// window is discarded, packets created during the measurement window are
// tagged, and throughput is the flit ejection rate during the measurement
// window normalized per node. One verdict, Summary.Saturated, compares
// that throughput with the flits the window offered; a run it calls
// saturated ends with the window, and any other drains until every
// tagged packet arrives.
package stats

import (
	"fmt"
	"math"
	"strconv"

	"ownsim/internal/noc"
)

// ApproxEqual reports whether a and b differ by at most tol. It is the
// project-wide replacement for exact floating-point equality, which the
// floatcmp analyzer forbids outside tests: exact == is evaluation-order
// and fusion dependent, so every comparison must state its tolerance.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// ApproxZero reports whether x is within tol of zero.
func ApproxZero(x, tol float64) bool {
	return math.Abs(x) <= tol
}

// Collector accumulates packet statistics for one simulation run. It is
// not safe for concurrent use; each network owns one.
type Collector struct {
	NumNodes    int
	MeasureFrom uint64
	MeasureTo   uint64

	createdMeasured uint64
	ejectedMeasured uint64
	// offeredFlits counts flits of every measured packet generated,
	// admitted to its source queue or dropped (Offered).
	offeredFlits uint64

	latencySum    float64
	netLatencySum float64
	latencyMax    uint64
	hopSum        uint64
	hopMax        int

	// windowFlits counts flits of packets ejected inside the
	// measurement window regardless of creation time (throughput).
	windowFlits uint64

	// latCount[l] is the number of measured packets whose latency was l
	// cycles: the whole run's latency distribution, from which Summary
	// reads exact percentiles. It grows by doubling to cover latencyMax,
	// 4 bytes per cycle of the longest latency.
	latCount []uint32
}

// NewCollector creates a collector for a run measuring cycles
// [measureFrom, measureTo) across numNodes terminals.
func NewCollector(numNodes int, measureFrom, measureTo uint64) *Collector {
	if measureTo <= measureFrom || numNodes <= 0 {
		panic("stats: invalid measurement window")
	}
	return &Collector{NumNodes: numNodes, MeasureFrom: measureFrom, MeasureTo: measureTo}
}

// OnCreated notes a newly generated packet (fabric calls it for every
// packet accepted into a source queue).
func (c *Collector) OnCreated(p *noc.Packet) {
	if p.Measure {
		c.createdMeasured++
		c.offeredFlits += uint64(p.NumFlits)
	}
}

// OnDropped notes a generated packet that a full source queue dropped: it
// counts toward Offered, not toward Pending.
func (c *Collector) OnDropped(p *noc.Packet) {
	if p.Measure {
		c.offeredFlits += uint64(p.NumFlits)
	}
}

// OnEjected notes a packet whose tail flit reached its sink.
func (c *Collector) OnEjected(p *noc.Packet, cycle uint64) {
	if cycle >= c.MeasureFrom && cycle < c.MeasureTo {
		c.windowFlits += uint64(p.NumFlits)
	}
	if !p.Measure {
		return
	}
	c.ejectedMeasured++
	lat := p.Latency()
	if lat >= uint64(len(c.latCount)) {
		// 1 024 counts cover a low-load run's latencies in one 4 KiB
		// allocation; a saturated OWN-256 run doubles three times more.
		n := max(len(c.latCount), 1024)
		for uint64(n) <= lat {
			n *= 2
		}
		grown := make([]uint32, n)
		copy(grown, c.latCount)
		c.latCount = grown
	}
	c.latCount[lat]++
	c.latencySum += float64(lat)
	c.netLatencySum += float64(p.NetworkLatency())
	if lat > c.latencyMax {
		c.latencyMax = lat
	}
	c.hopSum += uint64(p.Hops)
	if p.Hops > c.hopMax {
		c.hopMax = p.Hops
	}
}

// Pending returns the number of measured packets still in flight; drain
// loops run until it reaches zero.
func (c *Collector) Pending() uint64 { return c.createdMeasured - c.ejectedMeasured }

// Summary is the digest of one simulation run.
type Summary struct {
	// Packets is the number of measured packets ejected.
	Packets uint64
	// AvgLatency is the mean total (queueing + network) packet latency
	// in cycles. Of a saturated run it is the mean over the packets that
	// ejected inside the measurement window, not a measurement.
	AvgLatency float64
	// AvgNetLatency excludes source queueing.
	AvgNetLatency float64
	// P50Latency, P95Latency and P99Latency are exact nearest-rank
	// percentiles over every measured packet's latency.
	P50Latency uint64
	P95Latency uint64
	P99Latency uint64
	// MaxLatency is the worst measured packet latency.
	MaxLatency uint64
	// AvgHops is the mean router traversals per packet.
	AvgHops float64
	// MaxHops is the largest hop count seen (checked against topology
	// diameters in tests).
	MaxHops int
	// Throughput is accepted flits per node per cycle during the
	// measurement window.
	Throughput float64
	// Offered is flits per node per cycle generated during the
	// measurement window, packets a full source queue dropped included.
	Offered float64
}

// Saturated is the run's one saturation verdict: the measurement window
// accepted less than 0.92 of the flits it offered. The window must be
// much longer than the network's latency, or the verdict measures how the
// network fills rather than what it can carry.
func (s Summary) Saturated() bool { return s.Throughput < 0.92*s.Offered }

// String renders the summary as a single line. A saturated run prints
// "saturated" in place of its latencies: they measure how long the
// window's packets queued, not what the network delivers.
func (s Summary) String() string {
	switch {
	case s.Packets == 0:
		// Nothing measured ejected: there is no latency or hop count to print.
		return fmt.Sprintf("pkts=0 avgLat=n/a p50=n/a p95=n/a p99=n/a maxLat=n/a avgHops=n/a thr=%.4f f/n/c", s.Throughput)
	case s.Saturated():
		return fmt.Sprintf("pkts=%d saturated avgHops=%.2f thr=%.4f f/n/c", s.Packets, s.AvgHops, s.Throughput)
	}
	return fmt.Sprintf("pkts=%d avgLat=%.1f p50=%d p95=%d p99=%d maxLat=%d avgHops=%.2f thr=%.4f f/n/c",
		s.Packets, s.AvgLatency, s.P50Latency, s.P95Latency, s.P99Latency,
		s.MaxLatency, s.AvgHops, s.Throughput)
}

// Summary computes the run digest.
func (c *Collector) Summary() Summary {
	window, nodes := float64(c.MeasureTo-c.MeasureFrom), float64(c.NumNodes)
	s := Summary{
		Packets: c.ejectedMeasured, MaxLatency: c.latencyMax, MaxHops: c.hopMax,
		Throughput: float64(c.windowFlits) / window / nodes,
		Offered:    float64(c.offeredFlits) / window / nodes,
	}
	if c.ejectedMeasured == 0 {
		return s
	}
	s.AvgLatency = c.latencySum / float64(c.ejectedMeasured)
	s.AvgNetLatency = c.netLatencySum / float64(c.ejectedMeasured)
	s.AvgHops = float64(c.hopSum) / float64(c.ejectedMeasured)
	s.P50Latency, s.P95Latency, s.P99Latency = c.quantile(0.50), c.quantile(0.95), c.quantile(0.99)
	return s
}

// quantile returns the nearest-rank q-quantile of the measured latencies:
// the smallest latency at or below which ceil(q*n) of the n packets lie.
func (c *Collector) quantile(q float64) uint64 {
	rank := uint64(math.Ceil(q * float64(c.ejectedMeasured)))
	var below uint64
	for lat, n := range c.latCount {
		if below += uint64(n); below >= rank {
			return uint64(lat)
		}
	}
	return c.latencyMax
}

// CurvePoint is one sample of a load-latency sweep.
type CurvePoint struct {
	// Load is offered load in flits/node/cycle.
	Load float64
	// Latency is average packet latency at that load (cycles); of a
	// saturated point, the partial mean Summary.AvgLatency describes.
	Latency float64
	// Throughput is accepted flits/node/cycle.
	Throughput float64
	// Saturated is the run's verdict, Summary.Saturated.
	Saturated bool
}

// LatencyText renders Latency with prec decimals, or "saturated": a
// saturated point's latency is not a measurement.
func (p CurvePoint) LatencyText(prec int) string {
	if p.Saturated {
		return "saturated"
	}
	return strconv.FormatFloat(p.Latency, 'f', prec, 64)
}

// SaturationLoad returns the offered load at which latency crosses
// threshold x zero-load latency, linearly interpolated between samples.
// Points must be sorted by Load ascending; the first point's latency is
// taken as the zero-load latency. If no crossing occurs the highest
// sampled load is returned.
func SaturationLoad(points []CurvePoint, threshold float64) float64 {
	if len(points) == 0 {
		return 0
	}
	zero := points[0].Latency
	limit := float64(zero * threshold)
	for i := 1; i < len(points); i++ {
		p := points[i]
		if p.Saturated || p.Latency >= limit {
			prev := points[i-1]
			if p.Saturated || ApproxEqual(p.Latency, prev.Latency, 1e-9) {
				return prev.Load
			}
			// Linear interpolation of the crossing.
			t := (limit - prev.Latency) / (p.Latency - prev.Latency)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			return prev.Load + float64(t*(p.Load-prev.Load))
		}
	}
	return points[len(points)-1].Load
}

// CapacityLoad returns the highest offered load the network still
// carries, read off the grid without interpolation: the load of the last
// point before the first saturated one (Summary.Saturated), or
// points[0].Load when the first point is already saturated, the last load
// when none is, 0 for no points. This is the knee of the latency-load
// curve — the "saturates at the highest network load" comparison of the
// paper's Figure 7(b,c) — and unlike a multiple of zero-load latency it
// does not penalize architectures with very low base latency.
func CapacityLoad(points []CurvePoint) float64 {
	if len(points) == 0 {
		return 0
	}
	prevOK := points[0].Load
	for _, p := range points {
		if p.Saturated {
			return prevOK
		}
		prevOK = p.Load
	}
	return prevOK
}

// SaturationThroughput returns the highest accepted throughput across the
// sampled points (the plateau value the paper's Figure 7(a) reports).
func SaturationThroughput(points []CurvePoint) float64 {
	best := 0.0
	for _, p := range points {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}
