package traffic

import (
	"fmt"
	"math"
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
	mean := 0.0
	for i, g := range gens {
		mean += g.prob * lookahead
		g.pipe, g.slot, g.windowed, g.end = p, int32(i), true, from
	}
	// Sized for six standard deviations above the mean window, so a run
	// practically never grows a batch.
	for range batches {
		p.free <- &batch{arr: make([]arrival, 0, int(mean+6*math.Sqrt(mean))+8), start: make([]int32, len(gens)+1)}
	}
	go p.produce(gens, from)
	return func() {
		close(p.free)
		for range p.ready { // until the producer has returned
		}
	}
}

// produce fills every batch it is handed with the next window. A panic
// (an invalid pattern for the core count, say) is handed to the simulation
// thread, which raises it where the run can be recovered.
func (p *pipeline) produce(gens []*Bernoulli, base uint64) {
	defer func() {
		p.fault = recover()
		close(p.ready)
	}()
	for bt := range p.free {
		bt.base, bt.arr = base, bt.arr[:0]
		for i, g := range gens {
			bt.arr = g.fill(base, base+lookahead, bt.arr)
			bt.start[i+1] = int32(len(bt.arr))
		}
		p.ready <- bt
		base += lookahead
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
