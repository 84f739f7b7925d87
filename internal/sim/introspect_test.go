package sim

import "testing"

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseDelivery: "delivery",
		PhaseCompute:  "compute",
		PhaseCollect:  "collect",
		Phase(99):     "invalid",
		Phase(-1):     "invalid",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestPhaseStatsWakeCauses(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	e.Step() // initial awake tick, then asleep

	// Event wake: one transition; the second Wake is a no-op.
	s.w.Wake()
	s.w.Wake()
	e.Step()

	// Timer wake: due at a future cycle.
	s.w.WakeAt(e.Cycle() + 3)
	e.Run(4)

	st := e.PhaseStats(PhaseCompute)
	if st.WakesEvent != 1 {
		t.Errorf("WakesEvent = %d, want 1", st.WakesEvent)
	}
	if st.WakesTimer != 1 {
		t.Errorf("WakesTimer = %d, want 1", st.WakesTimer)
	}
	if st.WakesSpurious != 0 {
		t.Errorf("WakesSpurious = %d, want 0", st.WakesSpurious)
	}
	// Initial tick + event wake tick + timer wake tick.
	if st.Ticks != 3 {
		t.Errorf("Ticks = %d, want 3", st.Ticks)
	}
	if got := len(s.visits); got != 3 {
		t.Fatalf("sleeper ticked %d times, want 3", got)
	}
}

// A timed wakeup is spurious only when it fires on a component an event
// already woke; a superseded deadline is moved, not left behind to fire.
func TestPhaseStatsSpuriousTimer(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	s.stay = true
	e.Step()

	s.w.WakeAt(e.Cycle() + 5)
	s.w.WakeAt(e.Cycle() + 2) // earlier: moves the pending wakeup
	e.Run(6)

	st := e.PhaseStats(PhaseCompute)
	if st.WakesTimer != 0 {
		t.Errorf("WakesTimer = %d, want 0 (the component never slept)", st.WakesTimer)
	}
	if st.WakesSpurious != 1 {
		t.Errorf("WakesSpurious = %d, want 1 (fired on an awake component)", st.WakesSpurious)
	}
	if st.TimerHeapMax != 1 {
		t.Errorf("TimerHeapMax = %d, want 1 (one pending wakeup per component)", st.TimerHeapMax)
	}
}

func TestPhaseStatsAwakeOccupancy(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(PhaseCollect, tickFunc(func(uint64) { n++ }))
	e.Run(10)
	st := e.PhaseStats(PhaseCollect)
	// One always-on component: occupancy 1 on each of the 10 cycles.
	if st.AwakeCycleSum != 10 {
		t.Errorf("AwakeCycleSum = %d, want 10", st.AwakeCycleSum)
	}
	if st.Ticks != 10 {
		t.Errorf("Ticks = %d, want 10", st.Ticks)
	}
}

func TestFastForwardedCycles(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	_ = s
	// The sleeper sleeps after its first tick; the engine goes quiescent
	// and RunUntil fast-forwards the rest of the budget.
	ok := e.RunUntil(func() bool { return false }, 100)
	if ok {
		t.Fatal("RunUntil reported success for unreachable condition")
	}
	if e.Cycle() != 100 {
		t.Fatalf("Cycle() = %d, want 100", e.Cycle())
	}
	if ff := e.FastForwarded(); ff != 99 {
		t.Errorf("FastForwarded() = %d, want 99", ff)
	}
	// Fast-forwarded cycles are not executed: occupancy summed once.
	if st := e.PhaseStats(PhaseCompute); st.AwakeCycleSum != 1 {
		t.Errorf("AwakeCycleSum = %d, want 1", st.AwakeCycleSum)
	}
}

func TestPhaseStatsInvalidPhase(t *testing.T) {
	e := NewEngine()
	if st := e.PhaseStats(Phase(99)); st != (PhaseStats{}) {
		t.Errorf("PhaseStats(invalid) = %+v, want zero value", st)
	}
}

// Elapsed is the number of times a phase has run: the cycle number
// between steps and for a phase running or still to run, one more for
// Delivery and Compute once the Collect phase of the cycle reads them.
func TestElapsedCountsCompletedPhaseRuns(t *testing.T) {
	e := NewEngine()
	all := []Phase{PhaseDelivery, PhaseCompute, PhaseCollect}
	var w [numPhases]*Waker
	seen := map[Phase][][2]uint64{} // reader phase -> {Engine.Elapsed(p), Waker.Elapsed()} per p
	for _, p := range all {
		w[p] = e.RegisterWakeable(p, tickFunc(func(uint64) {
			for _, q := range all {
				seen[p] = append(seen[p], [2]uint64{e.Elapsed(q), w[q].Elapsed()})
			}
		}))
	}
	e.Run(7)
	e.Step() // cycle 7
	for _, p := range all {
		last := seen[p][len(seen[p])-3:]
		want := [][2]uint64{{7, 7}, {7, 7}, {7, 7}}
		if p == PhaseCollect {
			want = [][2]uint64{{8, 8}, {8, 8}, {7, 7}}
		}
		for q := range want {
			if last[q] != want[q] {
				t.Errorf("from the %s phase of cycle 7: Elapsed(%s) = %v, want %v", p, all[q], last[q], want[q])
			}
		}
	}
	for _, q := range all {
		if e.Elapsed(q) != 8 || w[q].Elapsed() != 8 {
			t.Errorf("between steps: Elapsed(%s) = %d/%d, want 8", q, e.Elapsed(q), w[q].Elapsed())
		}
	}
}

// An engine nobody collects on does not enter the Collect phase, and
// nothing it reports can tell: the phase's stats are zero either way.
func TestEmptyCollectPhaseIsInvisible(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	s.w.WakeAt(5)
	e.Run(10)
	if got := e.PhaseStats(PhaseCollect); got != (PhaseStats{}) {
		t.Fatalf("empty Collect phase reports %+v, want zeros", got)
	}
	want := PhaseStats{Ticks: 2, WakesTimer: 1, AwakeCycleSum: 2, TimerHeapMax: 1}
	if got := e.PhaseStats(PhaseCompute); got != want {
		t.Fatalf("Compute phase reports %+v, want %+v", got, want)
	}
	if e.Elapsed(PhaseCompute) != 10 || e.Cycle() != 10 {
		t.Fatalf("Elapsed = %d, Cycle = %d after 10 steps", e.Elapsed(PhaseCompute), e.Cycle())
	}
}
