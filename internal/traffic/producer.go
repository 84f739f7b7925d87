package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"ownsim/internal/sim"
)

// batches is how many windows a producer owns: the one the engine is in
// and at most two drawn ahead of it.
const batches = 3

// batch is one window of arrivals for every generator of a producer:
// generator i's are arr[start[i]:start[i+1]].
type batch struct {
	base  uint64
	arr   []arrival
	start []int32
}

// pipeline hands batches between the producer goroutine, which fills them,
// and the simulation thread, which reads them. A batch is the producer's
// from the moment it leaves free until it is sent on ready, and the
// simulation thread's from then until it goes back on free, so the two
// never touch one at the same time. Either channel can hold every batch,
// so no send blocks.
type pipeline struct {
	ready, free chan *batch
	cur         *batch // simulation thread: the window the engine is in
	fault       any    // producer: what it panicked with; read after ready closes
	lanes       *lanes // producer: its scratch when it draws four at a time
}

// Produce attaches gens to one new goroutine that draws their arrivals
// window by window, from cycle from on, at most two windows ahead of the
// cycles Generate asks for, and returns the function that stops it. Every
// Generate and NextPending of gens reads the producer's windows from then
// on; call it before the first Generate, with from that call's cycle, and
// stop it before the goroutine that started it returns (fabric.Network.Run
// defers it). Each generator's RNG is drawn only by the producer, in the
// order polling draws it, so what gens emit does not change.
func Produce(gens []*Bernoulli, from uint64) (stop func()) {
	p := &pipeline{ready: make(chan *batch, batches), free: make(chan *batch, batches)}
	mean, most := 0.0, 0.0
	for i, g := range gens {
		mean, most = mean+g.prob*lookahead, max(most, g.prob*lookahead)
		g.pipe, g.slot, g.windowed, g.end = p, int32(i), true, from
	}
	for range batches {
		p.free <- &batch{arr: make([]arrival, 0, room(mean)), start: make([]int32, len(gens)+1)}
	}
	if inLanes {
		n := room(most)
		buf := make([]arrival, 4*n)
		p.lanes = &lanes{}
		for j := range p.lanes.out {
			p.lanes.out[j] = buf[j*n : j*n : (j+1)*n]
		}
	}
	go p.produce(gens, from)
	return func() {
		close(p.free)
		for range p.ready { // until the producer has returned
		}
	}
}

// room is the capacity for a window of mean arrivals: six standard
// deviations above it, so a run practically never grows a slice.
func room(mean float64) int { return int(mean+6*math.Sqrt(mean)) + 8 }

// produce fills every batch it is handed with the next window, four
// generators at a time with lanes, else one by one. A panic (an invalid
// pattern for the core count, say) is handed to the simulation thread,
// which raises it where the run can be recovered.
func (p *pipeline) produce(gens []*Bernoulli, base uint64) {
	defer func() {
		p.fault = recover()
		close(p.ready)
	}()
	for bt := range p.free {
		bt.base, bt.arr = base, bt.arr[:0]
		if p.lanes != nil {
			p.lanes.fill(gens, bt)
		} else {
			for i, g := range gens {
				bt.arr = g.fill(base, base+lookahead, bt.arr)
				bt.start[i+1] = int32(len(bt.arr))
			}
		}
		p.ready <- bt
		base += lookahead
	}
}

// inLanes makes producers draw four generators at a time where
// sim.ScanBelow4 is one vector kernel. Elsewhere the per-source fill is
// faster. Tests clear it to run the per-source path on such a host too.
var inLanes = sim.VectorScan()

// lanes is a producer's scratch for drawing its generators four at a time
// with sim.ScanBelow4: in index order, zero-rate generators left out (they
// draw nothing), the last four padded with lanes of threshold 0 on pad,
// which never hit. The lanes stay on one cycle through a hit: the
// destination and size draws that follow it consume none.
type lanes struct {
	out [4][]arrival // one window's arrivals of the four, lane by lane
	rng [4]*sim.RNG
	th  [4]uint64
	pad sim.RNG
}

// fill draws window bt.base of every generator into bt, laid out as the
// per-source path lays it: generator by generator, in index order.
func (l *lanes) fill(gens []*Bernoulli, bt *batch) {
	var q [4]*Bernoulli
	k := 0
	clear(bt.start)
	for i, g := range gens {
		if g.thresh != 0 {
			q[k], k = g, k+1
		}
		if k == 4 || k > 0 && i == len(gens)-1 {
			l.draw(q[:k], bt.base)
			for j, g := range q[:k] {
				bt.arr = append(bt.arr, l.out[j]...)
				bt.start[g.slot+1] = int32(len(l.out[j]))
			}
			k = 0
		}
	}
	for i := range gens { // counts to offsets
		bt.start[i+1] += bt.start[i]
	}
}

// draw fills out[j] with q[j]'s arrivals of the window from base, the
// lanes past len(q) padding.
func (l *lanes) draw(q []*Bernoulli, base uint64) {
	for j := range l.out {
		l.out[j], l.rng[j], l.th[j] = l.out[j][:0], &l.pad, 0
		if j < len(q) {
			l.rng[j], l.th[j] = q[j].rng, q[j].thresh
		}
	}
	for c := base; c < base+lookahead; {
		n, hits := sim.ScanBelow4(&l.rng, &l.th, base+lookahead-c)
		c += n
		for ; hits != 0; hits &= hits - 1 {
			j := bits.TrailingZeros(hits)
			l.out[j] = q[j].hit(c-1-base, l.out[j])
		}
	}
}

// window returns the batch holding cycle, handing the ones before it back
// to the producer: by then every generator is past them, since the engine
// asks for a cycle only once every source has generated the cycles before.
func (p *pipeline) window(cycle uint64) *batch {
	for p.cur == nil || cycle >= p.cur.base+lookahead {
		if p.cur != nil {
			p.free <- p.cur
		}
		var ok bool
		if p.cur, ok = <-p.ready; !ok {
			panic(fmt.Sprintf("traffic: arrival producer stopped: %v", p.fault))
		}
	}
	return p.cur
}
