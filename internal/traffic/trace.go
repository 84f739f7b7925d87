package traffic

import (
	"fmt"
	"math"
	"sort"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// The paper's evaluation uses synthetic traffic only and names real
// workloads as future work ("In the future, we will evaluate with real
// workloads"). This file provides that extension: trace-driven traffic
// replay, plus generators for two application-shaped communication
// patterns — a 5-point stencil exchange and a recursive-doubling
// all-reduce — that stand in for the scientific workloads kilo-core
// chips target.

// TraceEntry is one packet of a workload trace.
type TraceEntry struct {
	// Cycle is the earliest injection cycle.
	Cycle uint64
	// Src and Dst are core identifiers.
	Src, Dst int
}

// Trace is a time-ordered list of packets for a whole chip.
type Trace struct {
	Entries []TraceEntry
}

// Sort orders entries by cycle (stable on src for determinism).
func (tr *Trace) Sort() {
	sort.SliceStable(tr.Entries, func(i, j int) bool {
		a, b := tr.Entries[i], tr.Entries[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Src < b.Src
	})
}

// Validate checks every entry against the core count.
func (tr *Trace) Validate(cores int) error {
	for i, e := range tr.Entries {
		if e.Src < 0 || e.Src >= cores || e.Dst < 0 || e.Dst >= cores {
			return fmt.Errorf("traffic: trace entry %d has endpoints (%d,%d) outside %d cores", i, e.Src, e.Dst, cores)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("traffic: trace entry %d is a self-send", i)
		}
	}
	return nil
}

// PerSource splits the trace into per-core replay generators. pktFlits is
// every packet's length; classify may be nil.
func (tr *Trace) PerSource(cores, pktFlits int, classify Classifier) []*Replay {
	tr.Sort()
	gens := make([]*Replay, cores)
	for i := range gens {
		gens[i] = &Replay{emitter: emitter{src: i, classify: classify}, pktFlits: pktFlits}
	}
	for _, e := range tr.Entries {
		gens[e.Src].entries = append(gens[e.Src].entries, e)
	}
	return gens
}

// Replay is a router.Generator that replays one core's slice of a trace:
// each entry is emitted at its cycle or as soon after as the
// one-packet-per-cycle interface allows. Packets created in
// [MeasureFrom, MeasureTo) carry Measure=true.
type Replay struct {
	emitter
	pktFlits int
	entries  []TraceEntry
	next     int
}

// NextPending implements router.NextWaker: a replay's schedule is fully
// known in advance and draws no randomness, so its source may sleep
// through the gaps between entries without disturbing anything.
func (r *Replay) NextPending(from uint64) (uint64, bool) {
	if r.next >= len(r.entries) {
		return 0, false
	}
	at := r.entries[r.next].Cycle
	if at < from {
		at = from
	}
	return at, true
}

// Generate implements router.Generator.
func (r *Replay) Generate(cycle uint64) *noc.Packet {
	if r.next >= len(r.entries) || r.entries[r.next].Cycle > cycle {
		return nil
	}
	e := r.entries[r.next]
	r.next++
	return r.packet(cycle, e.Dst, r.pktFlits)
}

// Done reports whether the replay has emitted every entry.
func (r *Replay) Done() bool { return r.next >= len(r.entries) }

// MaxStencilPeriod is the longest StencilTrace period: its jitter bound
// period/4 is at most math.MaxInt32, so a 32-bit int holds it and every
// platform draws the same jitter.
const MaxStencilPeriod uint64 = 4*math.MaxInt32 + 3

// StencilTrace builds a 5-point stencil exchange over a sqrt(n) x sqrt(n)
// core grid: for `iters` iterations spaced `period` cycles apart, every
// core sends one packet to each of its four neighbours (with wraparound),
// with per-core jitter in [0, period/4) to avoid pathological
// synchronization (none, and no draw, when period/4 is 0). It panics if
// period exceeds MaxStencilPeriod.
func StencilTrace(cores, iters int, period uint64, seed uint64) *Trace {
	if period > MaxStencilPeriod {
		panic(fmt.Sprintf("traffic: stencil period %d exceeds MaxStencilPeriod %d", period, MaxStencilPeriod))
	}
	side := isqrt(cores)
	rng := sim.NewRNG(seed)
	tr := &Trace{}
	for it := 0; it < iters; it++ {
		base := uint64(it) * period
		for c := 0; c < cores; c++ {
			r, col := c/side, c%side
			jitter := uint64(0)
			if period >= 4 {
				jitter = uint64(rng.Intn(int(period / 4)))
			}
			for _, d := range [][2]int{{0, 1}, {0, side - 1}, {1, 0}, {side - 1, 0}} {
				dst := ((r+d[0])%side)*side + (col+d[1])%side
				if dst == c {
					continue
				}
				tr.Entries = append(tr.Entries, TraceEntry{Cycle: base + jitter, Src: c, Dst: dst})
			}
		}
	}
	tr.Sort()
	return tr
}

// AllReduceTrace builds a recursive-doubling all-reduce schedule over n
// cores (n a power of two): log2(n) rounds, `period` cycles apart; in
// round k every core exchanges with its partner at XOR distance 2^k.
func AllReduceTrace(cores int, rounds int, period uint64) *Trace {
	tr := &Trace{}
	maxRounds := 0
	for 1<<uint(maxRounds) < cores {
		maxRounds++
	}
	if rounds <= 0 || rounds > maxRounds {
		rounds = maxRounds
	}
	for k := 0; k < rounds; k++ {
		base := uint64(k) * period
		for c := 0; c < cores; c++ {
			tr.Entries = append(tr.Entries, TraceEntry{Cycle: base, Src: c, Dst: c ^ (1 << uint(k))})
		}
	}
	tr.Sort()
	return tr
}
