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
// re-arms and goes back to sleep.
//
// Wakers are not safe for concurrent use; like the engine itself they
// belong to exactly one single-threaded simulation.
type Waker struct {
	e     *Engine
	ps    *phaseSched
	idx   int
	phase Phase
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
// the current one degrade to Wake. A component has at most one pending
// timed wakeup: an earlier-or-equal pending one subsumes the request, a
// later one is moved to the requested cycle, so a wakeup fires exactly
// once, on the earliest cycle asked for since the last one fired.
func (w *Waker) WakeAt(cycle uint64) {
	if cycle <= w.e.cycle {
		w.Wake()
		return
	}
	w.ps.arm(int32(w.idx), cycle)
}

// Asleep reports whether the component is out of the active set, and if
// so the cycle of its pending timed wakeup (0: none, only an event can
// wake it). It reads scheduler state only; lost-wakeup checks use it to
// prove a sleeping component is waiting for something that will come.
func (w *Waker) Asleep() (asleep bool, wakeAt uint64) {
	if w.ps.bits[w.idx>>6]&(1<<(uint(w.idx)&63)) != 0 {
		return false, 0
	}
	return true, w.ps.cal[w.idx].at
}

// Now returns the cycle currently executing (equal to Engine.Cycle). It
// lets components that skip cycles timestamp events received between
// their ticks — a wire computing a delivery deadline inside Send, for
// example — without maintaining their own copy of the clock.
func (w *Waker) Now() uint64 { return w.e.cycle }

// Elapsed returns how many times the component's phase has run to
// completion (Engine.Elapsed): Now() from inside the Delivery and Compute
// phases and between steps, Now()+1 for their components when read from
// the Collect phase.
func (w *Waker) Elapsed() uint64 { return w.e.Elapsed(w.phase) }
