package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// rewinder is a sleeper that can be run again: Reset forgets its visits.
type rewinder struct {
	sleeper
	resets int
}

func (r *rewinder) Reset() { r.visits, r.resets = nil, r.resets+1 }

// Reset after a run that left components asleep, wakeups pending laps ahead
// and every counter moved must leave what the same registrations leave on a
// new engine — and behave like it: a wakeup that survived would fire.
func TestEngineResetEqualsANewEngineWithTheSameRegistrations(t *testing.T) {
	build := func() (*Engine, []*rewinder) {
		e := NewEngine()
		var rs []*rewinder
		for i := 0; i < 70; i++ { // more than one bitmap word in a phase
			r := &rewinder{}
			r.w = e.RegisterWakeable(Phase(i%2), r)
			rs = append(rs, r)
		}
		always := &rewinder{sleeper: sleeper{stay: true}}
		e.Register(PhaseCollect, always)
		return e, append(rs, always)
	}
	script := func(e *Engine, rs []*rewinder) {
		e.Run(5) // everything wakeable is asleep
		for i, r := range rs[:70] {
			switch i % 3 { // every case in both phases
			case 0:
				r.w.WakeAt(e.Cycle() + 3)
			case 1:
				r.w.WakeAt(e.Cycle() + 3 + 4*calSlots)
			case 2:
				r.w.WakeAt(1 << 20)
			}
		}
		rs[3].w.Wake()
		e.RunUntil(func() bool { return false }, 10)
	}

	used, usedParts := build()
	script(used, usedParts)
	if used.phases[PhaseCompute].pending == 0 || used.Awake(PhaseDelivery) != 0 || used.PhaseStats(PhaseCompute).WakesTimer == 0 {
		t.Fatal("the run left nothing to rewind")
	}
	used.Reset()
	fresh, freshParts := build()

	for p := range used.phases {
		got, want := &used.phases[p], &fresh.phases[p]
		if !slices.Equal(got.bits, want.bits) || got.awake != want.awake || got.pending != want.pending ||
			got.stats != want.stats || got.slots != want.slots || !slices.Equal(got.cal, want.cal) {
			t.Errorf("%s phase after Reset differs from a new engine's", Phase(p))
		}
	}
	if used.Cycle() != 0 || used.FastForwarded() != 0 || used.Quiescent() != fresh.Quiescent() {
		t.Errorf("after Reset: cycle %d, fast-forwarded %d, quiescent %v", used.Cycle(), used.FastForwarded(), used.Quiescent())
	}
	script(used, usedParts)
	script(fresh, freshParts)
	for i := range usedParts {
		if usedParts[i].resets != 1 {
			t.Fatalf("component %d was Reset %d times, want once", i, usedParts[i].resets)
		}
		if !slices.Equal(usedParts[i].visits, freshParts[i].visits) {
			t.Fatalf("component %d: visits %v on the rewound engine, %v on a new one", i, usedParts[i].visits, freshParts[i].visits)
		}
	}
	for _, p := range []Phase{PhaseDelivery, PhaseCompute, PhaseCollect} {
		if !reflect.DeepEqual(used.PhaseStats(p), fresh.PhaseStats(p)) {
			t.Errorf("%s: PhaseStats %+v on the rewound engine, %+v on a new one", p, used.PhaseStats(p), fresh.PhaseStats(p))
		}
	}
}

// A component that cannot rewind itself would carry one run into the next;
// the engine refuses by name.
func TestEngineResetPanicsOnAComponentWithoutReset(t *testing.T) {
	e := NewEngine()
	r := &rewinder{}
	r.w = e.RegisterWakeable(PhaseCompute, r)
	newSleeper(e, PhaseDelivery)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "sim: cannot reset") || !strings.Contains(msg, "*sim.sleeper") {
			t.Fatalf("Reset panicked with %q, want the component's type named", msg)
		}
	}()
	e.Reset()
}
