package traffic

import (
	"fmt"
	"math/bits"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// Classifier assigns a topology-specific traffic class to a (src, dst)
// pair; OWN-1024 uses it to pin inter-group directions to VCs. A nil
// classifier yields class 0.
type Classifier func(src, dst int) int

// Bernoulli is a router.Generator offering open-loop load: each cycle
// carries a packet with probability q = sim.Threshold(rate/pktFlits)/2^53,
// independently of every other cycle, so the offered load is `rate` flits
// per node per cycle.
//
// It draws per packet, not per cycle: at each arrival it draws how many
// idle cycles pass before the next one (gapTable), so it always knows the
// cycle of its next packet and an idle source sleeps until it
// (NextPending, router.NextWaker). Its RNG is private and drawn in a fixed
// order: the first gap at the first cycle it is asked about (by Generate
// or NextPending), then at each arrival cycle c the destination and the
// gap counted from c+1. So the packets it emits are a pure function of
// (seed, source, pattern, rate) and that first cycle, and a
// generator that is only polled (Generate every cycle, never NextPending:
// fabric.SetReferenceMode's twin) emits what a sleeping one emits.
// fabric.DiffRuns checks the two agree packet for packet. Packets created
// in [MeasureFrom, MeasureTo) carry Measure=true.
type Bernoulli struct {
	n        int
	pattern  Pattern
	pktFlits int
	gaps     gapTable
	rng      sim.RNG

	emitter

	// due is the cycle of the next arrival once drawn is set.
	due   uint64
	drawn bool
}

// NewBernoulli creates a generator for core src out of n cores, offering
// `rate` flits/node/cycle of `pattern` traffic in packets of pktFlits
// flits. The seed should combine the run seed and src so that sources are
// decorrelated but reproducible.
func NewBernoulli(src, n int, pattern Pattern, rate float64, pktFlits int, seed uint64, classify Classifier) *Bernoulli {
	b := newBernoulli(n, pattern, rate, pktFlits, classify)
	b.seed(src, seed)
	return &b
}

// NewBernoullis returns the generators of sources 0 to n-1 of an n-core
// network, generator src what NewBernoulli(src, ...) makes. They are
// allocated together and share one gap table, so what a run's traffic
// allocates does not grow with its core count.
func NewBernoullis(n int, pattern Pattern, rate float64, pktFlits int, seed uint64, classify Classifier) []Bernoulli {
	proto := newBernoulli(n, pattern, rate, pktFlits, classify)
	gens := make([]Bernoulli, n)
	for src := range gens {
		gens[src] = proto
		gens[src].seed(src, seed)
	}
	return gens
}

// newBernoulli is a generator without its source: what every source of a
// run shares.
func newBernoulli(n int, pattern Pattern, rate float64, pktFlits int, classify Classifier) Bernoulli {
	if pktFlits <= 0 {
		panic("traffic: pktFlits must be positive")
	}
	p := rate / float64(pktFlits)
	if !(p >= 0 && p <= 1) {
		panic("traffic: invalid rate: packets per cycle outside [0, 1]")
	}
	return Bernoulli{n: n, pattern: pattern, pktFlits: pktFlits, gaps: newGapTable(sim.Threshold(p)), emitter: emitter{classify: classify}}
}

// seed makes b source src's generator, its RNG seeded from the run's seed.
func (b *Bernoulli) seed(src int, seed uint64) {
	b.src = src
	b.rng.Seed(seed*0x9e3779b97f4a7c15 + uint64(src) + 1)
}

// NextPending implements router.NextWaker: the cycle of the next arrival,
// which is from or later. False means no packet can follow (zero rate).
func (b *Bernoulli) NextPending(from uint64) (uint64, bool) {
	if b.gaps.thresh == 0 {
		return 0, false
	}
	if !b.drawn {
		b.due, b.drawn = from+b.gaps.draw(&b.rng), true
	}
	if b.due < from {
		panic(fmt.Sprintf("traffic: source %d asked about cycle %d, past its packet at cycle %d", b.src, from, b.due))
	}
	return b.due, true
}

// Generate implements router.Generator: the packet at an arrival cycle,
// nil before it. At the arrival it draws the destination and the gap to
// the next arrival.
func (b *Bernoulli) Generate(cycle uint64) *noc.Packet {
	if due, ok := b.NextPending(cycle); !ok || due != cycle {
		return nil
	}
	dst := Dest(b.pattern, b.src, b.n, &b.rng)
	b.due = cycle + 1 + b.gaps.draw(&b.rng)
	if dst == b.src { // a permutation's fixed point: nothing sent
		return nil
	}
	return b.packet(cycle, dst, b.pktFlits)
}

// gapTable draws G, the number of idle cycles before the next arrival of a
// process with arrival probability q = thresh/2^53 per cycle, from its
// exact distribution P(G = k) = (1-q)^k·q, with integer operations only, so
// that every host draws the same packets.
//
// The binary digits of G are independent: digit j is 1 with probability
// r_j/(1+r_j), where r_j = (1-q)^(2^j) (P(G = k) is proportional to
// (1-q)^k, the product over the digits). t[j] is that probability in 0.64
// fixed point, and G sums 2^j over the digits whose draw falls under it:
// about log2(1/q)+6 draws per arrival, where a coin per cycle takes 1/q.
// R_0 = (2^53-thresh)<<11 is 1-q in 0.64 fixed point exactly, squaring it
// (the high word) gives the next r, and t ends before the first zero,
// which comes by j = 59 even at thresh = 1. At thresh = 2^53, t is empty
// and G = 0. A zero thresh never arrives (NextPending).
type gapTable struct {
	thresh uint64
	t      []uint64
}

func newGapTable(thresh uint64) gapTable {
	g := gapTable{thresh: thresh}
	if thresh == 0 {
		return g
	}
	var t [64]uint64
	k := 0
	for r := (1<<53 - thresh) << 11; ; r, _ = bits.Mul64(r, r) {
		if t[k], _ = bits.Div64(r>>1, 0, 1<<63+r>>1); t[k] == 0 {
			break
		}
		k++
	}
	g.t = append([]uint64(nil), t[:k]...)
	return g
}

// draw returns one gap, consuming one RNG draw per digit.
func (g *gapTable) draw(rng *sim.RNG) uint64 {
	var gap uint64
	for j, t := range g.t {
		if rng.Uint64() < t {
			gap |= 1 << j
		}
	}
	return gap
}

// emitter makes a source's packets.
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
