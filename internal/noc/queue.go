package noc

// TimedQueue is a growable ring-buffer FIFO of values due at a cycle: the
// flits and credits on a Wire, the flits in flight on a shared channel.
// Every entry of one queue is pushed with the same delay, so deadlines are
// non-decreasing and a FIFO suffices (no heap needed). The zero value is
// an empty queue.
type TimedQueue[T any] struct {
	buf        []Timed[T]
	head, size int
}

// Timed is one entry: V is due at cycle At.
type Timed[T any] struct {
	At uint64
	V  T
}

// Len returns the number of entries.
func (q *TimedQueue[T]) Len() int { return q.size }

// Reset empties the queue and keeps its ring.
func (q *TimedQueue[T]) Reset() {
	clear(q.buf)
	q.head, q.size = 0, 0
}

// Push appends v, due at cycle at.
func (q *TimedQueue[T]) Push(at uint64, v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = Timed[T]{at, v}
	q.size++
}

// Peek returns the oldest entry without removing it; false when empty.
func (q *TimedQueue[T]) Peek() (Timed[T], bool) {
	if q.size == 0 {
		return Timed[T]{}, false
	}
	return q.buf[q.head], true
}

// Pop removes the oldest entry.
func (q *TimedQueue[T]) Pop() {
	q.buf[q.head] = Timed[T]{}
	q.head = (q.head + 1) % len(q.buf)
	q.size--
}

func (q *TimedQueue[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]Timed[T], n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// FlitFIFO is an intrusive FIFO of flits: the queue threads its members
// through their link fields, so it costs one pointer however deep it
// grows. It is circular: tail.link is the front. A flit is in at most one
// FlitFIFO at a time, and is popped before it is pushed anywhere else. The
// zero value is an empty queue.
type FlitFIFO struct{ tail *Flit }

// Empty reports whether the queue holds no flit.
func (q *FlitFIFO) Empty() bool { return q.tail == nil }

// Front returns the oldest flit; the queue must not be empty.
func (q *FlitFIFO) Front() *Flit { return q.tail.link }

// Push appends f, which must be in no queue.
func (q *FlitFIFO) Push(f *Flit) {
	if q.tail == nil {
		f.link = f
	} else {
		f.link, q.tail.link = q.tail.link, f
	}
	q.tail = f
}

// Pop removes and returns the oldest flit, its link cleared; the queue
// must not be empty.
func (q *FlitFIFO) Pop() *Flit {
	f := q.tail.link
	if f == q.tail {
		q.tail = nil
	} else {
		q.tail.link = f.link
	}
	f.link = nil
	return f
}

// Walk calls fn on the queued flits, front to tail, until fn returns
// false. It also stops at a nil link, so a walk of a broken circle ends
// when fn bounds the steps it takes.
func (q *FlitFIFO) Walk(fn func(*Flit) bool) {
	if q.tail == nil {
		return
	}
	for f := q.tail.link; f != nil; f = f.link {
		if !fn(f) || f == q.tail {
			return
		}
	}
}
