// Package stats collects and summarizes network performance metrics:
// per-packet latency (mean, p99, max), accepted throughput in
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
	"sort"
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

	// hist buckets latencies by power of two for percentile estimates.
	hist [40]uint64

	// lat retains the first reservoirCap() measured latencies for exact
	// percentiles; see Summary.PctSamples for the saturation caveat.
	lat []uint64

	// ReservoirCap overrides the exact-percentile reservoir size when
	// > 0 (see SetReservoirCap); 0 keeps LatencyReservoirCap.
	ReservoirCap int
}

// LatencyReservoirCap is the default bound on the exact-percentile
// latency reservoir: the first LatencyReservoirCap measured packets are
// retained verbatim (512 KiB); beyond that, later packets fall back to
// the power-of-two bucket estimate. The cutoff is deterministic
// (ejection order), so summaries remain bit-for-bit reproducible.
// SetReservoirCap (the -reservoir flag on the CLI tools) adjusts the
// bound per run.
const LatencyReservoirCap = 1 << 16

// NewCollector creates a collector for a run measuring cycles
// [measureFrom, measureTo) across numNodes terminals.
func NewCollector(numNodes int, measureFrom, measureTo uint64) *Collector {
	if measureTo <= measureFrom || numNodes <= 0 {
		panic("stats: invalid measurement window")
	}
	return &Collector{NumNodes: numNodes, MeasureFrom: measureFrom, MeasureTo: measureTo}
}

// SetReservoirCap sizes the exact-percentile reservoir (n latencies kept
// verbatim; 8 bytes each). Call before the first ejection; n <= 0 keeps
// the LatencyReservoirCap default. It panics if samples were already
// collected — resizing mid-run would make the retained prefix depend on
// when the call happened.
func (c *Collector) SetReservoirCap(n int) {
	if len(c.lat) > 0 {
		panic("stats: reservoir resized after collection started")
	}
	c.ReservoirCap = n
}

// reservoirCap returns the effective reservoir bound.
func (c *Collector) reservoirCap() int {
	if c.ReservoirCap > 0 {
		return c.ReservoirCap
	}
	return LatencyReservoirCap
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
	if rc := c.reservoirCap(); len(c.lat) < rc {
		if c.lat == nil {
			// Reserve what a run is likely to measure, not the cap: an
			// evaluation's runs measure 100-1 500 packets each, and the
			// default cap zeroed 512 KiB for every one of them (47 runs,
			// 156.4 MB allocated per claims-quick evaluation; 134.4 with
			// this reserve, BENCH_23.json). A run that measures more
			// grows by append up to the cap, so the cutoff and every
			// percentile are unchanged; a cap of 4096 or less (the
			// benchmark's single-network workloads) is still one
			// allocation per run.
			c.lat = make([]uint64, 0, min(rc, 4096))
		}
		c.lat = append(c.lat, lat)
	}
	c.latencySum += float64(lat)
	c.netLatencySum += float64(p.NetworkLatency())
	if lat > c.latencyMax {
		c.latencyMax = lat
	}
	c.hopSum += uint64(p.Hops)
	if p.Hops > c.hopMax {
		c.hopMax = p.Hops
	}
	b := 0
	for l := lat; l > 0; l >>= 1 {
		b++
	}
	if b >= len(c.hist) {
		b = len(c.hist) - 1
	}
	c.hist[b]++
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
	// P50Latency, P95Latency and P99Exact are exact nearest-rank
	// percentiles over the latency reservoir. When more than
	// LatencyReservoirCap packets were measured, they cover only the
	// first LatencyReservoirCap ejections (PctSamples < Packets flags
	// this), which biases them toward early — typically less congested
	// — traffic; the bucket-based P99Latency bound stays valid for the
	// whole run and is the fallback to quote in that regime.
	P50Latency uint64
	P95Latency uint64
	P99Exact   uint64
	// PctSamples is the number of latencies the exact percentiles were
	// computed over.
	PctSamples uint64
	// Truncated reports that the reservoir overflowed: the exact
	// percentiles cover only the first PctSamples of Packets ejections.
	Truncated bool
	// P99Latency is an upper estimate from power-of-two buckets over
	// every measured packet.
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

// String renders the summary as a single line.
func (s Summary) String() string {
	if s.Packets == 0 {
		// Nothing measured ejected: there is no latency or hop count to print.
		return fmt.Sprintf("pkts=0 avgLat=n/a p50=n/a p95=n/a p99=n/a (p99<=n/a) maxLat=n/a avgHops=n/a thr=%.4f f/n/c", s.Throughput)
	}
	line := fmt.Sprintf("pkts=%d avgLat=%.1f p50=%d p95=%d p99=%d (p99<=%d) maxLat=%d avgHops=%.2f thr=%.4f f/n/c",
		s.Packets, s.AvgLatency, s.P50Latency, s.P95Latency, s.P99Exact, s.P99Latency,
		s.MaxLatency, s.AvgHops, s.Throughput)
	if s.Truncated {
		line += fmt.Sprintf(" [pct over first %d]", s.PctSamples)
	}
	return line
}

// Summary computes the run digest.
func (c *Collector) Summary() Summary {
	s := Summary{Packets: c.ejectedMeasured, MaxLatency: c.latencyMax, MaxHops: c.hopMax}
	if c.ejectedMeasured > 0 {
		s.AvgLatency = c.latencySum / float64(c.ejectedMeasured)
		s.AvgNetLatency = c.netLatencySum / float64(c.ejectedMeasured)
		s.AvgHops = float64(c.hopSum) / float64(c.ejectedMeasured)
	}
	s.Throughput, s.Offered = c.rates()
	// p99 from buckets: find the bucket containing the 99th percentile
	// and report its upper bound.
	if c.ejectedMeasured > 0 {
		target := uint64(math.Ceil(float64(c.ejectedMeasured) * 0.99))
		var cum uint64
		for b, n := range c.hist {
			cum += n
			if cum >= target {
				s.P99Latency = 1 << uint(b)
				break
			}
		}
		if s.P99Latency > c.latencyMax {
			s.P99Latency = c.latencyMax
		}
	}
	// Exact nearest-rank percentiles over the (possibly truncated)
	// reservoir; the collector's copy stays in ejection order.
	if len(c.lat) > 0 {
		sorted := make([]uint64, len(c.lat))
		copy(sorted, c.lat)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.PctSamples = uint64(len(sorted))
		s.P50Latency = percentile(sorted, 0.50)
		s.P95Latency = percentile(sorted, 0.95)
		s.P99Exact = percentile(sorted, 0.99)
	}
	s.Truncated = s.PctSamples < s.Packets
	return s
}

// rates returns the window's accepted and offered flits/node/cycle.
func (c *Collector) rates() (accepted, offered float64) {
	window, nodes := float64(c.MeasureTo-c.MeasureFrom), float64(c.NumNodes)
	return float64(c.windowFlits) / window / nodes, float64(c.offeredFlits) / window / nodes
}

// Saturated is Summary().Saturated() without computing the percentiles:
// once the measurement window has closed, the verdict is final.
func (c *Collector) Saturated() bool {
	accepted, offered := c.rates()
	return Summary{Throughput: accepted, Offered: offered}.Saturated()
}

// percentile returns the nearest-rank q-quantile of a sorted sample.
func percentile(sorted []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
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
	limit := zero * threshold
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
			return prev.Load + t*(p.Load-prev.Load)
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
