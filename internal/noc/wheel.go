package noc

import (
	"math/bits"

	"ownsim/internal/sim"
)

// Wheel is the Delivery-phase component that delivers a run of wires:
// the wires added to it, in the order they were added. Its slots form a
// ring of cycles; the slot of a cycle holds a bitmap of the wires with a
// flit due then and an unordered list of the credits due then. A tick
// walks its cycle's bitmap in wire order — each wire hands over its due
// flits — and then the credit list.
//
// Flits keep the order per-wire components registered one after another
// would give them, so a wheel must sit at its first wire's place in the
// Delivery phase and own no wire registered after another Delivery
// component. Credits need no order: a credit only raises a count and
// wakes its receiver, and both commute with everything else delivered
// in the same phase (DESIGN.md §4, "Delivery wheels").
//
// The wheel is awake while anything is in flight and sleeps when nothing
// is; a tick with nothing due does nothing, as reference mode requires.
type Wheel struct {
	wires   []*Wire
	words   int        // bitmap words per slot
	mask    uint64     // slots - 1
	due     []uint64   // slot s's bitmap is due[s*words : (s+1)*words]
	credits [][]credit // credits[s] is slot s's credit list
	pending int        // flits and credits in flight
	now     uint64     // last ticked cycle: the clock without a waker
	waker   *sim.Waker
}

// credit is one returned VC index in flight on wire w.
type credit struct {
	w  *Wire
	vc int
}

// Add puts w on the wheel, after every wire already on it. Wires join
// while nothing is in flight; the wheel sizes its slots for them on its
// next tick.
func (wh *Wheel) Add(w *Wire) {
	w.wheel, w.idx = wh, len(wh.wires)
	wh.wires = append(wh.wires, w)
	wh.due = nil
}

// size allocates the slots once for the wires on the wheel: the smallest
// power of two above the longest delay of any of them, so that no
// deadline in flight shares a slot with the cycle being delivered.
func (wh *Wheel) size() {
	longest := 1
	for _, w := range wh.wires {
		longest = max(longest, w.Delay, w.CreditDelay)
	}
	slots := 1 << bits.Len(uint(longest))
	wh.words = (len(wh.wires) + 63) >> 6
	wh.mask = uint64(slots - 1)
	wh.due = make([]uint64, slots*wh.words)
	wh.credits = make([][]credit, slots)
}

// SetWaker installs the wheel's scheduling handle (from
// sim.Engine.RegisterWakeable). Without one the wheel ticks whenever its
// owner ticks it and keeps its clock from those ticks.
func (wh *Wheel) SetWaker(wk *sim.Waker) { wh.waker = wk }

// Reset rewinds the wheel and its wires to what Add left: nothing in
// flight, counts and clock at zero. The sim.Engine that ticks the wheel
// calls it; the wires are not engine components.
func (wh *Wheel) Reset() {
	for _, w := range wh.wires { // the wires stay, wiring and all
		w.Delivered = 0
		w.flits.Reset()
	}
	clear(wh.due) // words and mask stay: the slots keep their size
	for s := range wh.credits {
		wh.credits[s] = wh.credits[s][:0]
	}
	wh.pending, wh.now = 0, 0 // the waker stays
}

// book counts one more flit or credit in flight, due d cycles from now,
// and returns that cycle and its slot. It wakes the wheel if nothing was
// in flight.
func (wh *Wheel) book(d int) (at, slot uint64) {
	now := wh.now
	if wh.waker != nil {
		now = wh.waker.Now()
		if wh.pending == 0 {
			wh.waker.Wake()
		}
	}
	wh.pending++
	at = now + uint64(d)
	return at, at & wh.mask
}

// Tick implements sim.Ticker: it delivers the flits, then the credits,
// due at cycle.
func (wh *Wheel) Tick(cycle uint64) {
	wh.now = cycle
	if wh.due == nil {
		wh.size()
	}
	if wh.pending > 0 {
		s := cycle & wh.mask
		row := wh.due[int(s)*wh.words:][:wh.words]
		for i, word := range row {
			row[i] = 0
			for ; word != 0; word &= word - 1 {
				wh.pending -= wh.wires[i<<6|bits.TrailingZeros64(word)].deliver(cycle)
			}
		}
		cs := wh.credits[s]
		for _, c := range cs {
			c.w.src.ReceiveCredit(c.w.srcPort, c.vc)
		}
		wh.credits[s] = cs[:0]
		wh.pending -= len(cs)
	}
	if wh.pending == 0 && wh.waker != nil {
		wh.waker.Sleep()
	}
}
