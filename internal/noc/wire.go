package noc

import "ownsim/internal/sim"

// Wire is a pipelined point-to-point electrical link with a constant
// forward (flit) delay and reverse (credit) delay, both in cycles.
//
// Wires are registered in the engine's Delivery phase. A flit handed to
// Send during the Compute phase of cycle c is delivered to the downstream
// FlitReceiver during the Delivery phase of cycle c+Delay, i.e. it becomes
// visible to the downstream router's pipeline at cycle c+Delay. The same
// holds for credits in the reverse direction.
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

	now     uint64
	waker   *sim.Waker
	flits   TimedQueue[*Flit]
	credits TimedQueue[int] // returned VC indices
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

// SetWaker installs the wire's scheduling handle (from
// sim.Engine.RegisterWakeable). A wire without a waker behaves as a plain
// every-cycle Ticker and tracks time through its own Tick; with a waker
// it reads the clock through the engine and sleeps whenever both queues
// are empty.
func (w *Wire) SetWaker(wk *sim.Waker) { w.waker = wk }

// Reset rewinds the wire to what NewWire left: nothing in flight, count
// and clock at zero. Wiring and the waker stay.
func (w *Wire) Reset() {
	w.Delivered, w.now = 0, 0
	w.flits.Reset()
	w.credits.Reset()
}

// clock returns the current cycle: the engine's when a waker is
// installed (a sleeping wire's own copy goes stale), the last ticked
// cycle otherwise.
func (w *Wire) clock() uint64 {
	if w.waker != nil {
		return w.waker.Now()
	}
	return w.now
}

// Send implements Conduit. It is called during the Compute phase.
func (w *Wire) Send(f *Flit) {
	at := w.clock() + uint64(w.Delay)
	w.flits.Push(at, f)
	if w.waker != nil {
		w.waker.WakeAt(at)
	}
}

// ReturnCredit implements CreditReturner: the downstream buffer returns a
// freed slot, and the wire carries the credit back upstream.
func (w *Wire) ReturnCredit(vc int) {
	at := w.clock() + uint64(w.CreditDelay)
	w.credits.Push(at, vc)
	if w.waker != nil {
		w.waker.WakeAt(at)
	}
}

// Tick implements sim.Ticker; it runs in the Delivery phase and hands over
// everything whose latency has elapsed.
func (w *Wire) Tick(cycle uint64) {
	w.now = cycle
	for {
		tf, ok := w.flits.Peek()
		if !ok || tf.At > cycle {
			break
		}
		w.flits.Pop()
		w.Delivered++
		w.dst.ReceiveFlit(w.dstPort, tf.V)
	}
	for {
		tc, ok := w.credits.Peek()
		if !ok || tc.At > cycle {
			break
		}
		w.credits.Pop()
		w.src.ReceiveCredit(w.srcPort, tc.V)
	}
	if w.waker != nil {
		w.reschedule(cycle)
	}
}

// reschedule re-arms the waker for the earliest outstanding deadline, or
// sleeps when both queues are empty. Send/ReturnCredit arriving while
// asleep wake the wire directly. A deadline on the very next cycle keeps
// the awake bit set instead of paying for a calendar round-trip.
func (w *Wire) reschedule(cycle uint64) {
	next := uint64(0)
	if tf, ok := w.flits.Peek(); ok {
		next = tf.At
	}
	if tc, ok := w.credits.Peek(); ok && (next == 0 || tc.At < next) {
		next = tc.At
	}
	if next == cycle+1 {
		return // stay awake
	}
	w.waker.Sleep()
	if next != 0 {
		w.waker.WakeAt(next)
	}
}

// InFlight returns the number of flits currently traversing the wire.
func (w *Wire) InFlight() int { return w.flits.Len() }
