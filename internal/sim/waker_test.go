package sim

import (
	"slices"
	"testing"
)

// sleeper ticks, records its visit cycles, and sleeps itself after each
// tick unless told to stay awake.
type sleeper struct {
	w      *Waker
	visits []uint64
	stay   bool
}

func (s *sleeper) Tick(c uint64) {
	s.visits = append(s.visits, c)
	if !s.stay {
		s.w.Sleep()
	}
}

func newSleeper(e *Engine, p Phase) *sleeper {
	s := &sleeper{}
	s.w = e.RegisterWakeable(p, s)
	return s
}

func TestWakeableStartsAwakeThenSleeps(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	e.Run(5)
	if len(s.visits) != 1 || s.visits[0] != 0 {
		t.Fatalf("visits = %v, want exactly cycle 0", s.visits)
	}
	if e.Awake(PhaseCompute) != 0 {
		t.Fatalf("Awake = %d after sleep", e.Awake(PhaseCompute))
	}
}

func TestWakeVisitsNextCycle(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	e.Run(3) // visit at 0, then asleep
	s.w.Wake()
	e.Run(3)
	if len(s.visits) != 2 || s.visits[1] != 3 {
		t.Fatalf("visits = %v, want second visit at cycle 3", s.visits)
	}
}

func TestWakeAtFiresAtRequestedCycle(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseDelivery)
	e.Run(1)
	s.w.WakeAt(7)
	e.Run(10)
	if len(s.visits) != 2 || s.visits[1] != 7 {
		t.Fatalf("visits = %v, want second visit at cycle 7", s.visits)
	}
}

func TestWakeAtPastDegradesToWake(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	e.Run(4)
	s.w.WakeAt(2) // already in the past: behaves as Wake
	e.Run(2)
	if len(s.visits) != 2 || s.visits[1] != 4 {
		t.Fatalf("visits = %v, want second visit at cycle 4", s.visits)
	}
}

// A component has one pending wakeup: duplicates and later requests are
// subsumed, an earlier request moves it — one visit at the new cycle,
// none at the old.
func TestWakeAtRearmEarlierMovesTheWakeup(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	e.Run(1)
	s.w.WakeAt(5)
	s.w.WakeAt(5) // duplicate: subsumed by the pending wakeup
	s.w.WakeAt(9) // later than pending: subsumed too (5 wakes first anyway)
	s.w.WakeAt(3) // earlier: the wakeup moves from 5 to 3
	e.Run(12)
	if want := []uint64{0, 3}; !slices.Equal(s.visits, want) {
		t.Fatalf("visits = %v, want %v", s.visits, want)
	}
	st := e.PhaseStats(PhaseCompute)
	if st.WakesTimer != 1 || st.WakesSpurious != 0 || st.TimerHeapMax != 1 {
		t.Fatalf("WakesTimer %d WakesSpurious %d TimerHeapMax %d, want 1 0 1", st.WakesTimer, st.WakesSpurious, st.TimerHeapMax)
	}
}

// Deadlines a whole number of laps apart share a calendar slot; each
// fires once, on its own cycle, however many laps away it is.
func TestCalendarDeadlinesBeyondOneLap(t *testing.T) {
	e := NewEngine()
	ahead := []uint64{3, calSlots, 3 + calSlots, 3 + 5*calSlots, 1 << 16, 3 + 1<<16}
	var ss []*sleeper
	for range ahead {
		ss = append(ss, newSleeper(e, PhaseCompute))
	}
	e.Run(1)
	base := e.Cycle()
	for i, s := range ss {
		s.w.WakeAt(base + ahead[i])
	}
	if got := e.PhaseStats(PhaseCompute).TimerHeapMax; got != len(ss) {
		t.Fatalf("TimerHeapMax = %d, want %d", got, len(ss))
	}
	e.Run(1<<16 + 2*calSlots)
	for i, s := range ss {
		if want := []uint64{0, base + ahead[i]}; !slices.Equal(s.visits, want) {
			t.Errorf("deadline +%d: visits = %v, want %v", ahead[i], s.visits, want)
		}
	}
	if !e.Quiescent() {
		t.Fatal("engine not quiescent after every wakeup fired")
	}
}

// Firing sets awake bits only, so the visit order on a cycle is
// registration order whatever order the wakeups were armed in.
func TestCalendarVisitOrderIsRegistrationOrder(t *testing.T) {
	run := func(armOrder []int) []int {
		e := NewEngine()
		var log []int
		var ws []*Waker
		for i := 0; i < 4; i++ {
			id := i
			var w *Waker
			w = e.RegisterWakeable(PhaseCompute, tickFunc(func(c uint64) {
				if c > 0 {
					log = append(log, id)
				}
				w.Sleep()
			}))
			ws = append(ws, w)
		}
		e.Run(1)
		for _, i := range armOrder {
			ws[i].WakeAt(9)
			ws[i].WakeAt(6) // move: relinks the node in another slot
		}
		e.Run(10)
		return log
	}
	a, b := run([]int{0, 1, 2, 3}), run([]int{2, 0, 3, 1})
	for i, want := range []int{0, 1, 2, 3} {
		if len(a) != 4 || len(b) != 4 || a[i] != want || b[i] != want {
			t.Fatalf("visit orders %v and %v, want registration order", a, b)
		}
	}
}

// TestSameCycleForwardWake verifies the done-mask walk: a component woken
// by an earlier component of the same phase in the same cycle is visited
// that cycle when it lies ahead in registration order.
func TestSameCycleForwardWake(t *testing.T) {
	e := NewEngine()
	target := &sleeper{}
	var earlyW *Waker
	earlyW = e.RegisterWakeable(PhaseCompute, tickFunc(func(c uint64) {
		if c == 2 {
			target.w.Wake() // forward wake: target has a higher index
		}
		earlyW.Wake() // stay awake
	}))
	target.w = e.RegisterWakeable(PhaseCompute, target)
	e.Run(4) // target visits cycle 0 (starts awake), sleeps, re-woken at 2
	want := []uint64{0, 2}
	if len(target.visits) != len(want) || target.visits[0] != want[0] || target.visits[1] != want[1] {
		t.Fatalf("forward-woken visits = %v, want %v", target.visits, want)
	}
}

// TestBackwardWakeDefersToNextCycle: waking a component whose index the
// walk has already passed visits it next cycle, not twice this cycle.
func TestBackwardWakeDefersToNextCycle(t *testing.T) {
	e := NewEngine()
	target := newSleeper(e, PhaseCompute) // idx 0
	var waker *sleeper
	waker = &sleeper{}
	waker.w = e.RegisterWakeable(PhaseCompute, tickFunc(func(c uint64) {
		waker.visits = append(waker.visits, c)
		if c == 2 {
			target.w.Wake() // backward: idx 0 already walked this cycle
		}
	}))
	e.Run(4)
	want := []uint64{0, 3}
	if len(target.visits) != len(want) || target.visits[0] != want[0] || target.visits[1] != want[1] {
		t.Fatalf("backward-woken visits = %v, want %v", target.visits, want)
	}
}

func TestQuiescentAndRunUntilFastForward(t *testing.T) {
	e := NewEngine()
	s := newSleeper(e, PhaseCompute)
	if e.Quiescent() {
		t.Fatal("engine quiescent before first tick of an awake component")
	}
	e.Run(1)
	if !e.Quiescent() {
		t.Fatal("engine not quiescent with every component asleep")
	}
	s.w.WakeAt(4)
	if e.Quiescent() {
		t.Fatal("engine quiescent with a pending timer")
	}
	// RunUntil with an unreachable cond must still burn the whole budget
	// on the cycle counter (fast-forwarded, not stepped).
	ok := e.RunUntil(func() bool { return false }, 100)
	if ok {
		t.Fatal("RunUntil reported success for unreachable condition")
	}
	if e.Cycle() != 101 {
		t.Fatalf("Cycle() = %d, want 101 (1 stepped + 100 budget)", e.Cycle())
	}
	if len(s.visits) != 2 || s.visits[1] != 4 {
		t.Fatalf("visits = %v, want timer visit at cycle 4 before fast-forward", s.visits)
	}
}

func TestAlwaysOnComponentPreventsQuiescence(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(PhaseCollect, tickFunc(func(uint64) { n++ }))
	e.Run(3)
	if e.Quiescent() {
		t.Fatal("engine with an always-on component must never be quiescent")
	}
	ok := e.RunUntil(func() bool { return false }, 10)
	if ok || n != 13 {
		t.Fatalf("always-on component ticked %d times, want 13", n)
	}
}

// TestMixedRegistrationOrderPreserved: wakeable and always-on components
// interleave in strict registration order when all are awake.
func TestMixedRegistrationOrderPreserved(t *testing.T) {
	e := NewEngine()
	var log []int
	for i := 0; i < 70; i++ { // cross a word boundary in the bitmap
		id := i
		if i%2 == 0 {
			e.Register(PhaseCompute, tickFunc(func(uint64) { log = append(log, id) }))
		} else {
			var w *Waker
			w = e.RegisterWakeable(PhaseCompute, tickFunc(func(uint64) {
				log = append(log, id)
				w.Wake() // stay awake
			}))
		}
	}
	e.Run(2)
	if len(log) != 140 {
		t.Fatalf("got %d visits, want 140", len(log))
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 70; i++ {
			if log[c*70+i] != i {
				t.Fatalf("cycle %d: visit order %v not registration order", c, log[c*70:c*70+70])
			}
		}
	}
}

// The calendar is threaded through one node per registered component,
// so nothing allocates inside a run: not every wakeable of a phase arming
// at once, not a steady arm / move / fire / re-arm loop.
func TestCalendarAllocFree(t *testing.T) {
	e := NewEngine()
	e.Register(PhaseCompute, &sleeper{stay: true}) // always-on: arms nothing
	var ss []*sleeper
	for i := 0; i < 1000; i++ {
		s := newSleeper(e, PhaseCompute)
		s.visits = make([]uint64, 0, 4096)
		ss = append(ss, s)
	}
	e.Step()
	if n := testing.AllocsPerRun(1, func() {
		for _, s := range ss {
			s.w.WakeAt(e.Cycle() + 5)
		}
	}); n != 0 {
		t.Fatalf("1000 wakeables arming at once: %v allocs, want 0", n)
	}
	if got := e.PhaseStats(PhaseCompute).TimerHeapMax; got != len(ss) {
		t.Fatalf("TimerHeapMax = %d, want %d", got, len(ss))
	}
	e.Run(6)
	s := ss[0]
	if n := testing.AllocsPerRun(100, func() {
		s.w.WakeAt(e.Cycle() + 2*calSlots)
		s.w.WakeAt(e.Cycle() + 3)
		e.Run(4)
	}); n != 0 {
		t.Fatalf("arm, move, fire, re-arm loop: %v allocs per run, want 0", n)
	}
	if got, want := len(s.visits), 2+101; got != want {
		t.Fatalf("looping sleeper visited %d times, want %d", got, want)
	}
}
