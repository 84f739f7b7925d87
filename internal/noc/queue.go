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
