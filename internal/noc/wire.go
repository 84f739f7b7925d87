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
	flits   timedQueue[*Flit]
	credits timedQueue[int] // returned VC indices
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
	w.flits.push(at, f)
	if w.waker != nil {
		w.waker.WakeAt(at)
	}
}

// ReturnCredit implements CreditReturner: the downstream buffer returns a
// freed slot, and the wire carries the credit back upstream.
func (w *Wire) ReturnCredit(vc int) {
	at := w.clock() + uint64(w.CreditDelay)
	w.credits.push(at, vc)
	if w.waker != nil {
		w.waker.WakeAt(at)
	}
}

// Tick implements sim.Ticker; it runs in the Delivery phase and hands over
// everything whose latency has elapsed.
func (w *Wire) Tick(cycle uint64) {
	w.now = cycle
	for {
		tf, ok := w.flits.peek()
		if !ok || tf.at > cycle {
			break
		}
		w.flits.pop()
		w.Delivered++
		w.dst.ReceiveFlit(w.dstPort, tf.v)
	}
	for {
		tc, ok := w.credits.peek()
		if !ok || tc.at > cycle {
			break
		}
		w.credits.pop()
		w.src.ReceiveCredit(w.srcPort, tc.v)
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
	if tf, ok := w.flits.peek(); ok {
		next = tf.at
	}
	if tc, ok := w.credits.peek(); ok && (next == 0 || tc.at < next) {
		next = tc.at
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
func (w *Wire) InFlight() int { return w.flits.len() }

// timedQueue is a ring-buffer FIFO of values due at a cycle. Because every
// entry on a given wire has the same delay, entries are pushed in
// non-decreasing deadline order and a FIFO suffices (no heap needed).
type timedQueue[T any] struct {
	buf        []timed[T]
	head, size int
}

type timed[T any] struct {
	at uint64
	v  T
}

func (q *timedQueue[T]) len() int { return q.size }

func (q *timedQueue[T]) push(at uint64, v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = timed[T]{at, v}
	q.size++
}

func (q *timedQueue[T]) peek() (timed[T], bool) {
	if q.size == 0 {
		return timed[T]{}, false
	}
	return q.buf[q.head], true
}

func (q *timedQueue[T]) pop() {
	q.buf[q.head] = timed[T]{}
	q.head = (q.head + 1) % len(q.buf)
	q.size--
}

func (q *timedQueue[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]timed[T], n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
