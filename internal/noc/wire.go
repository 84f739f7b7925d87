package noc

import "ownsim/internal/sim"

// Wire is a pipelined point-to-point electrical link with a constant
// forward (flit) delay and reverse (credit) delay, both in cycles.
//
// A Wheel delivers the wire: a flit handed to Send during the Compute
// phase of cycle c is delivered to the downstream FlitReceiver during the
// Delivery phase of cycle c+Delay, i.e. it becomes visible to the
// downstream router's pipeline at cycle c+Delay. The same holds for
// credits in the reverse direction. A network puts its wires on shared
// wheels (fabric.Connect); a wire used on its own — ticked by hand or
// registered through SetWaker — is a wheel of one wire.
//
// Delay must cover switch traversal plus link traversal; topology builders
// use 2+extra so that the canonical 5-stage router pipeline (RC, VCA, SA,
// ST, LT) costs RC+VCA+SA in the router and ST+LT(+slack) on the wire.
type Wire struct {
	// Delay is the forward flit latency in cycles (>= 1).
	Delay int
	// CreditDelay is the reverse credit latency in cycles (>= 1).
	CreditDelay int

	dst     FlitReceiver
	dstPort int
	src     CreditReceiver
	srcPort int

	// Delivered counts the flits handed downstream; the power meter
	// prices link traversal from it.
	Delivered uint64

	wheel *Wheel
	idx   int // bit of the wire in its wheel's slots
	flits TimedQueue[*Flit]
}

// NewWire creates a wire from an upstream output port (src, srcPort) to a
// downstream input port (dst, dstPort). delay and creditDelay are clamped
// to a minimum of 1 cycle.
func NewWire(src CreditReceiver, srcPort int, dst FlitReceiver, dstPort int, delay, creditDelay int) *Wire {
	if delay < 1 {
		delay = 1
	}
	if creditDelay < 1 {
		creditDelay = 1
	}
	return &Wire{
		Delay:       delay,
		CreditDelay: creditDelay,
		dst:         dst,
		dstPort:     dstPort,
		src:         src,
		srcPort:     srcPort,
	}
}

// on returns the wheel that delivers w; a wire no wheel took becomes a
// wheel of its own on first use.
func (w *Wire) on() *Wheel {
	if w.wheel == nil {
		wh := &Wheel{}
		wh.Add(w)
		wh.size()
	}
	return w.wheel
}

// SetWaker installs the scheduling handle of a wire registered on its own
// (sim.Engine.RegisterWakeable with the wire as the Ticker). Without one
// the wire is a plain every-cycle Ticker and tracks time through its own
// Tick; with one it reads the clock through the engine and sleeps
// whenever nothing is in flight.
func (w *Wire) SetWaker(wk *sim.Waker) { w.on().SetWaker(wk) }

// Reset rewinds the wheel that delivers w (Wheel.Reset).
func (w *Wire) Reset() { w.on().Reset() }

// Tick ticks the wheel that delivers w (Wheel.Tick).
func (w *Wire) Tick(cycle uint64) { w.on().Tick(cycle) }

// Send implements Conduit. It is called during the Compute phase.
func (w *Wire) Send(f *Flit) {
	wh := w.on()
	at, s := wh.book(w.Delay)
	w.flits.Push(at, f)
	wh.due[int(s)*wh.words+w.idx>>6] |= 1 << (uint(w.idx) & 63)
}

// ReturnCredit implements CreditReturner: the downstream buffer returns a
// freed slot, and the wire carries the credit back upstream.
func (w *Wire) ReturnCredit(vc int) {
	wh := w.on()
	_, s := wh.book(w.CreditDelay)
	wh.credits[s] = append(wh.credits[s], credit{w, vc})
}

// deliver hands over every flit due by cycle and returns how many.
func (w *Wire) deliver(cycle uint64) int {
	n := 0
	for tf, ok := w.flits.Peek(); ok && tf.At <= cycle; tf, ok = w.flits.Peek() {
		w.flits.Pop()
		w.Delivered++
		w.dst.ReceiveFlit(w.dstPort, tf.V)
		n++
	}
	return n
}
