package sim

// Waker is the scheduling handle of one wakeable component. The component
// (or any event source acting on it) uses the Waker to request visits from
// the engine; the engine never polls a sleeping component.
//
// The wake protocol is level-triggered: once awake, a component is ticked
// every cycle until it calls Sleep, which it may only do from inside its
// own Tick (that is the only point where it can prove it has no pending
// work). Wakes are idempotent and may arrive on any cycle, including
// spuriously — a woken component whose deadlines have not arrived simply
// re-arms and goes back to sleep, so stale timed wakeups are harmless.
//
// Wakers are not safe for concurrent use; like the engine itself they
// belong to exactly one single-threaded simulation.
type Waker struct {
	e       *Engine
	ps      *phaseSched
	idx     int
	timerAt uint64 // earliest pending timed wakeup; 0 = none
}

// Wake marks the component runnable at the next execution of its phase:
// the current cycle if its phase has not yet walked past it, otherwise the
// next cycle. Calling Wake on an awake component is a no-op.
func (w *Waker) Wake() {
	if w.ps.set(w.idx) {
		w.ps.stats.WakesEvent++
	}
}

// Sleep removes the component from the active set. Call it only from
// inside the component's own Tick, after establishing that no work is
// pending; external events re-wake the component through Wake/WakeAt.
// Under Engine.DisableSleep it is a no-op, pinning every component in
// the every-cycle schedule the reference oracle requires.
func (w *Waker) Sleep() {
	if w.e.noSleep {
		return
	}
	w.ps.clear(w.idx)
}

// SleepDisabled reports whether the engine is in reference mode
// (Engine.DisableSleep), where Sleep does nothing. Components whose
// bookkeeping before a Sleep is not free check it first.
func (w *Waker) SleepDisabled() bool { return w.e.noSleep }

// WakeAt schedules a visit at the given future cycle. Cycles not after
// the current one degrade to Wake. A pending earlier-or-equal timed
// wakeup subsumes the request; a later one is left in the heap and fires
// as a harmless spurious wake.
func (w *Waker) WakeAt(cycle uint64) {
	if cycle <= w.e.cycle {
		w.Wake()
		return
	}
	if w.timerAt != 0 && w.timerAt <= cycle {
		return
	}
	w.timerAt = cycle
	w.ps.timers.push(timerEnt{at: cycle, idx: w.idx})
	if n := len(w.ps.timers); n > w.ps.stats.TimerHeapMax {
		w.ps.stats.TimerHeapMax = n
	}
}

// Now returns the cycle currently executing (equal to Engine.Cycle). It
// lets components that skip cycles timestamp events received between
// their ticks — a wire computing a delivery deadline inside Send, for
// example — without maintaining their own copy of the clock.
func (w *Waker) Now() uint64 { return w.e.cycle }

// timerEnt is one scheduled wakeup.
type timerEnt struct {
	at  uint64
	idx int
}

// timerHeap is a binary min-heap of timed wakeups ordered by (at, idx).
// The idx tie-break is never observable — firing order only sets bitmap
// bits — but keeps the heap's internal layout, and therefore the whole
// engine, deterministic byte for byte.
type timerHeap []timerEnt

func (h timerEnt) less(o timerEnt) bool {
	return h.at < o.at || (h.at == o.at && h.idx < o.idx)
}

func (h *timerHeap) push(e timerEnt) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].less((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *timerHeap) pop() timerEnt {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timerEnt{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].less(s[small]) {
			small = l
		}
		if r < n && s[r].less(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
