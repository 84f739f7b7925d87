package traffic

import (
	"math"

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
// Its RNG is private and drawn in a fixed order (one coin flip per cycle,
// then the destination and the size right after a success), so the cycles,
// destinations and sizes it emits are a pure function of (seed, source,
// pattern, rate): drawing them ahead of the simulation cannot move a
// packet. A generator that is only polled (Generate every cycle, never
// NextPending: fabric.SetReferenceMode's twin) flips one coin per call.
// Otherwise Generate reads arrivals from windows of lookahead cycles,
// filled by a producer goroutine (Produce) or, without one, by the
// generator itself when its window runs out, and NextPending names the
// next one, so an idle source sleeps until it (router.NextWaker).
// fabric.DiffRuns, whose reference twin polls, checks that the two agree
// packet for packet. Packets created in [MeasureFrom, MeasureTo) carry
// Measure=true.
type Bernoulli struct {
	// The draws. While a producer is attached rng is its alone, and the
	// rest (src included) is read-only.
	n        int
	pattern  Pattern
	pktFlits int
	sizes    *SizeDist
	prob     float64
	thresh   uint64 // sim.Threshold(prob)
	rng      *sim.RNG

	// Everything below is the simulation thread's.
	emitter

	// The window: win holds the arrivals of cycles [end-lookahead, end) in
	// cycle order, next the first one not generated yet. While windowed is
	// false the generator is polled and win holds the one cycle Generate
	// just drew. With pipe nil the generator fills win itself; with a
	// producer attached win is slot's share of its batch.
	win      []arrival
	next     int32
	slot     int32
	end      uint64
	pipe     *pipeline
	windowed bool
}

// arrival is one packet the draws decided: its cycle as an offset into its
// window, its length and its destination, in 8 bytes.
type arrival struct {
	off, flits uint16
	dst        int32
}

// lookahead is the window, in cycles, that arrivals are drawn in. An idle
// source wakes once per window to read the next (60 times in a 61 k-cycle
// run), and nobody reads what is drawn past the end of a run: at most the
// rest of the engine's window plus the producer's two ahead (Produce). The
// offsets fit a uint16 up to 1<<16. Where windows start does not change
// what is drawn, only when.
const lookahead = 1 << 10

// NewBernoulli creates a generator for core src out of n cores, offering
// `rate` flits/node/cycle of `pattern` traffic in packets of pktFlits
// flits. The seed should combine the run seed and src so that sources are
// decorrelated but reproducible.
func NewBernoulli(src, n int, pattern Pattern, rate float64, pktFlits int, seed uint64, classify Classifier) *Bernoulli {
	if pktFlits <= 0 || pktFlits > math.MaxUint16 {
		panic("traffic: pktFlits must be in [1, 65535]")
	}
	b := &Bernoulli{
		n:        n,
		pattern:  pattern,
		pktFlits: pktFlits,
		rng:      sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(src) + 1),
		emitter:  emitter{src: src, classify: classify},
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
// preserving the offered load in flits/node/cycle. Call it before Produce.
func (b *Bernoulli) SetSizes(d SizeDist) {
	if d.ShortFlits <= 0 || d.LongFlits <= 0 || max(d.ShortFlits, d.LongFlits) > math.MaxUint16 || d.LongFrac < 0 || d.LongFrac > 1 {
		panic("traffic: invalid size distribution")
	}
	rate := b.prob * float64(b.pktFlits)
	b.sizes = &d
	b.setProb(rate / d.Mean())
}

// NextPending implements router.NextWaker: the cycle of the next arrival
// in the window, or the window's end, where Generate reads the next one.
// The first call turns a polled generator into a windowed one whose first
// window starts at from. NextPending never moves the window: under a
// producer the window the current cycle is in is shared, and another
// source may still have to generate in this very cycle, so a source asking
// from the last cycle of its window is told the end. False means no packet
// can follow (zero rate).
func (b *Bernoulli) NextPending(from uint64) (uint64, bool) {
	if b.thresh == 0 {
		return 0, false
	}
	if !b.windowed {
		b.windowed, b.end, b.win = true, from, nil
	}
	return b.due(), true
}

// Generate implements router.Generator. Polled, it draws its own cycle as
// a window of one: one coin flip per call, then the destination and the
// size on a hit.
func (b *Bernoulli) Generate(cycle uint64) *noc.Packet {
	if !b.windowed {
		if b.win = b.fill(cycle, cycle+1, b.win[:0]); len(b.win) == 0 {
			return nil
		}
		return b.packet(cycle, int(b.win[0].dst), int(b.win[0].flits))
	}
	if cycle >= b.end {
		b.advance(cycle)
	}
	if b.due() != cycle {
		return nil
	}
	a := b.win[b.next]
	b.next++
	return b.packet(cycle, int(a.dst), int(a.flits))
}

// due is the cycle of the next arrival in the window, or its end.
func (b *Bernoulli) due() uint64 {
	if int(b.next) == len(b.win) {
		return b.end
	}
	return b.end - lookahead + uint64(b.win[b.next].off)
}

// advance moves the window on to the one holding cycle.
func (b *Bernoulli) advance(cycle uint64) {
	b.next = 0
	if b.pipe != nil {
		bt := b.pipe.window(cycle)
		b.end = bt.base + lookahead
		b.win = bt.arr[bt.start[b.slot]:bt.start[b.slot+1]]
		return
	}
	for cycle >= b.end {
		b.win = b.fill(b.end, b.end+lookahead, b.win[:0])
		b.end += lookahead
	}
}

// fill appends the arrivals of cycles [from, to) to out, drawing in the
// order polling draws: flip by flip and, on a hit, the destination and then
// the size (hit). A producer on a host with sim.VectorScan flips four
// generators at a time instead (lanes.draw), with the same hit.
func (b *Bernoulli) fill(from, to uint64, out []arrival) []arrival {
	for c := from; b.thresh != 0 && c < to; {
		n, hit := b.rng.ScanBelow(b.thresh, to-c)
		if c += n; !hit {
			break
		}
		out = b.hit(c-1-from, out)
	}
	return out
}

// hit draws the destination and the size of the packet whose flip hit at
// offset off of a window, and appends it to out. It consumes no cycle.
func (b *Bernoulli) hit(off uint64, out []arrival) []arrival {
	dst := Dest(b.pattern, b.src, b.n, b.rng)
	if dst == b.src {
		return out // a permutation's fixed point: no size drawn, nothing sent
	}
	flits := b.pktFlits
	if b.sizes != nil {
		flits = b.sizes.sample(b.rng)
	}
	return append(out, arrival{off: uint16(off), flits: uint16(flits), dst: int32(dst)})
}

// emitter makes a source's packets, on the simulation thread.
type emitter struct {
	src      int
	classify Classifier
	pool     *noc.Pool
	nextID   uint64

	// MeasureFrom/MeasureTo bound the measurement window in cycles;
	// packets created inside it carry Measure=true.
	MeasureFrom, MeasureTo uint64
}

// UsePool implements router.PoolUser: packets are drawn from the source's
// freelist so steady-state generation allocates nothing.
func (e *emitter) UsePool(pl *noc.Pool) { e.pool = pl }

// packet builds the packet the source sends at cycle.
func (e *emitter) packet(cycle uint64, dst, flits int) *noc.Packet {
	e.nextID++
	class := 0
	if e.classify != nil {
		class = e.classify(e.src, dst)
	}
	var p *noc.Packet
	if e.pool != nil {
		p = e.pool.Get()
	} else {
		p = &noc.Packet{}
	}
	// Globally unique across sources: high bits carry the source.
	p.ID = uint64(e.src)<<40 | e.nextID
	p.Src = e.src
	p.Dst = dst
	p.NumFlits = flits
	p.Class = class
	p.Measure = cycle >= e.MeasureFrom && cycle < e.MeasureTo
	return p
}
