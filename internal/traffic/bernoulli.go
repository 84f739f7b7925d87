package traffic

import (
	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// Classifier assigns a topology-specific traffic class to a (src, dst)
// pair; OWN-1024 uses it to pin inter-group directions to VCs. A nil
// classifier yields class 0.
type Classifier func(src, dst int) int

// SizeDist is a bimodal packet-length distribution modeling real NoC
// traffic: short control packets (coherence requests, acks) mixed with
// long data packets (cache-line replies). The paper evaluates fixed
// 5-flit packets; this is the knob for the request/reply extension.
type SizeDist struct {
	// ShortFlits and LongFlits are the two packet lengths.
	ShortFlits, LongFlits int
	// LongFrac is the probability of a long packet.
	LongFrac float64
}

// Mean returns the expected packet length in flits.
func (d SizeDist) Mean() float64 {
	return float64(d.ShortFlits)*(1-d.LongFrac) + float64(d.LongFlits)*d.LongFrac
}

// sample draws one packet length.
func (d SizeDist) sample(rng *sim.RNG) int {
	if rng.Float64() < d.LongFrac {
		return d.LongFlits
	}
	return d.ShortFlits
}

// RequestReply is a representative mix: 1-flit control packets and
// 5-flit cache-line data packets, two thirds control.
func RequestReply() SizeDist {
	return SizeDist{ShortFlits: 1, LongFlits: 5, LongFrac: 1.0 / 3}
}

// Bernoulli is a router.Generator offering open-loop load: each cycle it
// creates a packet with probability rate/pktFlits, so the offered load is
// `rate` flits per node per cycle.
//
// It implements router.NextWaker by looking ahead. Its RNG is private and
// drawn in a fixed order (one coin flip per cycle, then destination and
// size right after a success), so NextPending can consume the coming
// cycles' flips early and name the cycle of the first success: nothing
// outside the generator can tell that from one flip per Generate call.
// An idle source sleeps until its next packet and every simulated outcome
// stays bit for bit what per-cycle polling gives (fabric.DiffRuns, whose
// reference twin never calls NextPending, checks that).
type Bernoulli struct {
	src      int
	n        int
	pattern  Pattern
	pktFlits int
	sizes    *SizeDist
	prob     float64
	thresh   uint64 // sim.Threshold(prob)
	rng      *sim.RNG
	classify Classifier

	// NextPending has consumed the flips of every cycle before skipTo
	// (all failed) and, when armed, skipTo's own: a success whose packet
	// Generate(skipTo) is still to build.
	skipTo uint64
	armed  bool

	// MeasureFrom/MeasureTo bound the measurement window in cycles;
	// packets created inside it carry Measure=true.
	MeasureFrom, MeasureTo uint64

	// Stop, when non-zero, halts generation at that cycle (used by the
	// drain phase). It may be set or lowered at any time but never
	// raised: a look-ahead that ran into it has spent flips.
	Stop uint64

	pool   *noc.Pool
	nextID uint64
}

// lookahead bounds one NextPending scan, in cycles: a source whose next
// packet lies further out wakes at the horizon and scans on. What a short
// horizon buys is the flips a scan draws past the end of a run, which
// nobody reads: the evaluation's runs are 3-13 k cycles, and at 1<<16 its
// sources drew 286 M flips where cores x cycles is 129 M; at 1<<10 they
// draw 156 M (191 M at 1<<12). What it costs is one wake per horizon per
// idle source: on a 61 k-cycle OWN-1024 run at a quarter of saturation
// 7 k scans become 65 k, and the run is no slower for it (167 ms against
// 175); at 1<<8 it is (177 ms, 247 k scans for another 0.6 M flips). The
// draw sequence does not depend on the horizon.
const lookahead = 1 << 10

// NewBernoulli creates a generator for core src out of n cores, offering
// `rate` flits/node/cycle of `pattern` traffic in packets of pktFlits
// flits. The seed should combine the run seed and src so that sources are
// decorrelated but reproducible.
func NewBernoulli(src, n int, pattern Pattern, rate float64, pktFlits int, seed uint64, classify Classifier) *Bernoulli {
	if pktFlits <= 0 {
		panic("traffic: pktFlits must be positive")
	}
	b := &Bernoulli{
		src:      src,
		n:        n,
		pattern:  pattern,
		pktFlits: pktFlits,
		rng:      sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(src) + 1),
		classify: classify,
	}
	b.setProb(rate / float64(pktFlits))
	return b
}

// setProb installs the per-cycle packet probability.
func (b *Bernoulli) setProb(p float64) {
	if !(p >= 0 && p <= 1) {
		panic("traffic: invalid rate: packets per cycle outside [0, 1]")
	}
	b.prob = p
	b.thresh = sim.Threshold(p)
}

// SetSizes switches the generator to a bimodal length distribution while
// preserving the offered load in flits/node/cycle.
func (b *Bernoulli) SetSizes(d SizeDist) {
	if d.ShortFlits <= 0 || d.LongFlits <= 0 || d.LongFrac < 0 || d.LongFrac > 1 {
		panic("traffic: invalid size distribution")
	}
	rate := b.prob * float64(b.pktFlits)
	b.sizes = &d
	b.setProb(rate / d.Mean())
}

// UsePool implements router.PoolUser: packets are drawn from the source's
// freelist so steady-state generation allocates nothing.
func (b *Bernoulli) UsePool(pl *noc.Pool) { b.pool = pl }

// NextPending implements router.NextWaker. It consumes the coin flips of
// cycles from, from+1, ... up to the first success, Stop or the horizon,
// and names the cycle Generate is due next: the success (its packet is
// built without a further flip) or the horizon (Generate flips as usual).
// Generate calls before that cycle draw nothing. False means no packet
// can follow: zero rate, or Stop comes first.
func (b *Bernoulli) NextPending(from uint64) (uint64, bool) {
	return b.nextPending(from, lookahead)
}

func (b *Bernoulli) nextPending(from, horizon uint64) (uint64, bool) {
	if b.thresh == 0 || b.stopped(from) {
		return 0, false
	}
	if !b.armed {
		from = max(from, b.skipTo)
		end := from + horizon
		if b.Stop != 0 {
			end = min(end, b.Stop)
		}
		n, hit := b.rng.ScanBelow(b.thresh, end-from)
		b.skipTo, b.armed = from+n, hit
		if hit {
			b.skipTo-- // the hit is the last flip consumed
		}
	}
	// Checked on every call: a Stop lowered into the gap retires the
	// pending hit and lets the source sleep for good.
	return b.skipTo, !b.stopped(b.skipTo)
}

func (b *Bernoulli) stopped(cycle uint64) bool { return b.Stop != 0 && cycle >= b.Stop }

// Generate implements router.Generator.
func (b *Bernoulli) Generate(cycle uint64) *noc.Packet {
	if b.stopped(cycle) || cycle < b.skipTo {
		return nil
	}
	if b.armed {
		b.armed = false
	} else if !b.rng.Below(b.thresh) {
		return nil
	}
	dst := Dest(b.pattern, b.src, b.n, b.rng)
	if dst == b.src {
		// Permutation fixed point: no network traversal needed.
		return nil
	}
	b.nextID++
	class := 0
	if b.classify != nil {
		class = b.classify(b.src, dst)
	}
	flits := b.pktFlits
	if b.sizes != nil {
		flits = b.sizes.sample(b.rng)
	}
	var p *noc.Packet
	if b.pool != nil {
		p = b.pool.Get()
	} else {
		p = &noc.Packet{}
	}
	// Globally unique across sources: high bits carry the source.
	p.ID = uint64(b.src)<<40 | b.nextID
	p.Src = b.src
	p.Dst = dst
	p.NumFlits = flits
	p.Class = class
	p.Measure = cycle >= b.MeasureFrom && cycle < b.MeasureTo
	return p
}
