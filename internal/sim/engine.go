// Package sim provides the cycle-driven simulation engine used by every
// network model in this repository.
//
// The engine advances global time in discrete router-clock cycles. Each
// cycle it walks an ordered list of phases; every component registered in a
// phase has its Tick method invoked with the current cycle number. Phase
// ordering gives deterministic, race-free semantics without a full
// event-queue: channels (links, photonic buses, wireless channels) deliver
// in-flight flits in the Delivery phase, and routers/network interfaces make
// decisions in the Compute phase, so all routers observe a consistent
// "start of cycle" view of their input buffers.
//
// Components come in two flavours. Plain Tickers (Register) are visited
// every cycle, unconditionally — the right contract for collectors that
// must observe every cycle, such as the probe sampler. Wakeable tickers
// (RegisterWakeable) are only visited on cycles for which they are awake:
// they receive a Waker handle, put themselves to sleep when idle, and are
// woken by the events that hand them work (a flit sent onto a wire, a
// credit returned, a packet queued on a shared channel). At kilo-core
// scale most routers, sources and channels are idle on any given cycle,
// so the active-set walk is the difference between thousands of virtual
// calls per cycle and a handful. Wires are not components of their own:
// one delivery wheel per run of a network's wires (noc.Wheel) is, and it
// is awake while anything is in flight on them.
package sim

import (
	"fmt"
	"math/bits"
)

// Ticker is a simulation component that performs work once per cycle.
type Ticker interface {
	// Tick advances the component to the given cycle. Cycles are
	// monotonically increasing and start at zero. Wakeable tickers must
	// tolerate spurious wakes: a Tick on a cycle with no due work must
	// have no observable effect.
	Tick(cycle uint64)
}

// Phase identifies one of the engine's ordered execution phases.
type Phase int

// String names the phase for metrics and manifests ("delivery",
// "compute", "collect").
func (p Phase) String() string {
	switch p {
	case PhaseDelivery:
		return "delivery"
	case PhaseCompute:
		return "compute"
	case PhaseCollect:
		return "collect"
	}
	return "invalid"
}

const (
	// PhaseDelivery is when channels move flits/credits that have
	// completed their traversal into downstream buffers.
	PhaseDelivery Phase = iota
	// PhaseCompute is when routers and network interfaces run their
	// pipelines (RC, VCA, SA, ST) and inject new traffic.
	PhaseCompute
	// PhaseCollect is when statistics and samplers read state.
	PhaseCollect
	numPhases
)

// Engine drives a set of Tickers through simulated time.
//
// The zero value is not usable; create engines with NewEngine. Components
// must be registered before the first call to Step or Run. Registration
// order within a phase is preserved — awake components are visited in
// ascending registration order via a dense bitmap, never in wake order —
// which (together with seeded RNGs) makes whole simulations bit-for-bit
// reproducible.
type Engine struct {
	phases     [numPhases]phaseSched
	cycle      uint64
	fastFwd    uint64
	noSleep    bool
	collecting bool // the Collect phase of cycle is executing
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset rewinds the engine to cycle zero with its registrations kept:
// every component awake, no timed wakeup pending, PhaseStats and the
// fast-forward count at zero — the state the same Register calls leave on
// a new engine (DisableSleep is configuration and stays). It then calls
// Reset on every component, which must rewind itself the same way, and
// panics naming the type of one that cannot: running such a component a
// second time would carry state of the first run into it.
func (e *Engine) Reset() {
	e.cycle, e.fastFwd, e.collecting = 0, 0, false
	for p := range e.phases {
		ps := &e.phases[p]
		for s := range ps.slots {
			ps.slots[s] = -1
		}
		clear(ps.cal)
		clear(ps.bits)
		ps.awake, ps.pending, ps.stats = 0, 0, PhaseStats{}
		for idx, t := range ps.ticks {
			ps.set(idx)
			r, ok := t.(interface{ Reset() })
			if !ok {
				panic(fmt.Sprintf("sim: cannot reset: %T has no Reset method", t))
			}
			r.Reset()
		}
	}
}

// Register adds an always-on component to the given phase: it is ticked
// every cycle. It panics on an invalid phase, since that is a wiring bug,
// not a runtime condition.
func (e *Engine) Register(p Phase, t Ticker) {
	if p < 0 || p >= numPhases {
		panic("sim: invalid phase")
	}
	e.phases[p].add(t)
}

// RegisterWakeable adds a component that participates in the active-set
// schedule and returns its Waker. The component starts awake (its first
// Tick lets it decide to sleep) and is thereafter only visited on cycles
// for which it is awake. It panics on an invalid phase.
func (e *Engine) RegisterWakeable(p Phase, t Ticker) *Waker {
	if p < 0 || p >= numPhases {
		panic("sim: invalid phase")
	}
	ps := &e.phases[p]
	return &Waker{e: e, ps: ps, idx: ps.add(t), phase: p}
}

// DisableSleep puts the engine in reference mode: Waker.Sleep becomes a
// no-op, so every wakeable component stays permanently awake and is
// visited every cycle, and the engine never goes quiescent (RunUntil
// never fast-forwards). The wake protocol requires spurious ticks to be
// no-ops, so simulation state is identical cycle for cycle — the
// conformance oracle (internal/check) relies on this to re-run workloads
// without the active-set scheduler. Call before the first Step/Run.
func (e *Engine) DisableSleep() { e.noSleep = true }

// SleepDisabled reports whether DisableSleep was called.
func (e *Engine) SleepDisabled() bool { return e.noSleep }

// Cycle returns the number of completed cycles. During a component's Tick
// it reports the cycle currently executing, which is what wakeable
// components use (via Waker.Now) to timestamp events between their ticks.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Elapsed returns how many times phase p has run to completion: Cycle()
// between steps and for a phase still to run or running in the current
// cycle, Cycle()+1 for Delivery and Compute while the Collect phase of
// that cycle executes. It is the clock a component that keeps a per-cycle
// count by interval settles against when the count is read (samplers read
// in Collect): cycles before Elapsed are over for it, however few of them
// it was ticked on.
func (e *Engine) Elapsed(p Phase) uint64 {
	if e.collecting && p != PhaseCollect {
		return e.cycle + 1
	}
	return e.cycle
}

// Step advances simulated time by exactly one cycle. A Collect phase with
// no component is not entered, so engines without collectors pay nothing
// for Elapsed (its PhaseStats stay zero either way).
func (e *Engine) Step() {
	c := e.cycle
	e.phases[PhaseDelivery].run(c)
	e.phases[PhaseCompute].run(c)
	if col := &e.phases[PhaseCollect]; len(col.ticks) > 0 {
		e.collecting = true
		col.run(c)
		e.collecting = false
	}
	e.cycle++
}

// Run advances simulated time by n cycles.
func (e *Engine) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
}

// Quiescent reports whether no component is awake and no timed wakeup is
// pending in any phase. A quiescent engine is frozen: no Tick will ever
// run again, so stepping only advances the cycle counter. Always-on
// components keep their awake bit permanently, so an engine with any
// plain-Register component is never quiescent.
func (e *Engine) Quiescent() bool {
	for p := range e.phases {
		ps := &e.phases[p]
		if ps.awake > 0 || ps.pending > 0 {
			return false
		}
	}
	return true
}

// RunUntil advances time until cond returns true (checked after each cycle)
// or until the cycle budget is exhausted. It reports whether cond fired.
//
// When the engine goes quiescent mid-run (network fully drained, nothing
// scheduled), no future Tick can change simulation state, so RunUntil
// fast-forwards the cycle counter through the remaining budget instead of
// stepping idle cycles one by one. cond must therefore be a function of
// simulation state, not of Cycle(): a cond that flips at a specific wall
// cycle may be observed later than it would have been under per-cycle
// stepping (the final cycle count and simulation state are identical).
func (e *Engine) RunUntil(cond func() bool, budget uint64) bool {
	for i := uint64(0); i < budget; i++ {
		e.Step()
		if cond() {
			return true
		}
		if e.Quiescent() {
			skipped := budget - i - 1
			e.cycle += skipped
			e.fastFwd += skipped
			return cond()
		}
	}
	return false
}

// Components returns the number of components registered in phase p.
func (e *Engine) Components(p Phase) int {
	if p < 0 || p >= numPhases {
		return 0
	}
	return len(e.phases[p].ticks)
}

// Awake returns the number of currently awake components in phase p
// (always-on components count as permanently awake). Exposed for tests
// and benchmarks of the scheduler.
func (e *Engine) Awake(p Phase) int {
	if p < 0 || p >= numPhases {
		return 0
	}
	return e.phases[p].awake
}

// PhaseStats is the cumulative introspection record of one phase's
// active-set schedule. All counts are free-running since engine
// construction; they are pure observations of scheduling activity and
// never feed back into it, so reading them is always safe.
type PhaseStats struct {
	// Ticks counts component Tick invocations.
	Ticks uint64
	// WakesEvent counts sleep-to-awake transitions caused by Waker.Wake
	// (including WakeAt calls that degrade to an immediate wake).
	WakesEvent uint64
	// WakesTimer counts sleep-to-awake transitions caused by a live
	// timed wakeup coming due.
	WakesTimer uint64
	// WakesSpurious counts timed wakeups that fired on a component that
	// was already awake (an event got there first). The wake protocol
	// makes these harmless; the count sizes their overhead.
	WakesSpurious uint64
	// AwakeCycleSum accumulates the awake-set size once per executed
	// cycle; divided by executed cycles it is the mean occupancy. Cycles
	// fast-forwarded by RunUntil are not executed and not summed.
	AwakeCycleSum uint64
	// TimerHeapMax is the peak number of timed wakeups pending at once
	// (at most one per component). There is no heap; the name stays
	// because manifests and bench/ key on it.
	TimerHeapMax int
}

// PhaseStats returns phase p's scheduler introspection counters (zero
// value on an invalid phase).
func (e *Engine) PhaseStats(p Phase) PhaseStats {
	if p < 0 || p >= numPhases {
		return PhaseStats{}
	}
	return e.phases[p].stats
}

// FastForwarded returns the cycles RunUntil skipped through quiescent
// stretches instead of stepping them one by one.
func (e *Engine) FastForwarded() uint64 { return e.fastFwd }

// phaseSched is the active-set schedule of one phase: the components in
// registration order, a dense awake bitmap over them, and a calendar of
// timed wakeups (arm/fire below). Iteration walks the bitmap in
// ascending index order, so the visit order is always registration order
// regardless of wake order.
type phaseSched struct {
	ticks   []Ticker
	cal     []calNode // index-aligned with ticks
	bits    []uint64  // awake bitmap, bit i covers ticks[i]
	awake   int       // number of set bits
	slots   [calSlots]int32
	pending int // armed calendar nodes
	stats   PhaseStats
}

// add appends a component and returns its index. Always-on components
// are the ones never handed a Waker: their bit is set here and nothing
// can clear it.
func (ps *phaseSched) add(t Ticker) int {
	idx := len(ps.ticks)
	ps.ticks = append(ps.ticks, t)
	ps.cal = append(ps.cal, calNode{})
	if idx>>6 >= len(ps.bits) {
		ps.bits = append(ps.bits, 0)
	}
	ps.set(idx) // everything starts awake
	return idx
}

// set marks the component awake and reports whether this was a
// sleep-to-awake transition (false: it was awake already). Callers that
// attribute wake causes branch on the return value.
func (ps *phaseSched) set(idx int) bool {
	word := &ps.bits[idx>>6]
	mask := uint64(1) << (uint(idx) & 63)
	if *word&mask == 0 {
		*word |= mask
		ps.awake++
		return true
	}
	return false
}

func (ps *phaseSched) clear(idx int) {
	word := &ps.bits[idx>>6]
	mask := uint64(1) << (uint(idx) & 63)
	if *word&mask != 0 {
		*word &^= mask
		ps.awake--
	}
}

// run executes one cycle of the phase: due timers wake their components,
// then awake components are ticked in registration order. A component
// woken mid-walk by an earlier component of the same phase is picked up
// in the same cycle if its index lies ahead of the walk position, exactly
// as it would have been under tick-everyone semantics; behind the walk
// position it is visited next cycle, which is equivalent because a
// sleeping component's Tick is by contract a no-op.
func (ps *phaseSched) run(cycle uint64) {
	if ps.pending > 0 {
		ps.fire(cycle)
	}
	ps.stats.AwakeCycleSum += uint64(ps.awake)
	if ps.awake == 0 {
		return
	}
	for wi := range ps.bits {
		var done uint64
		for {
			word := ps.bits[wi] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			// Mark b and every lower bit as passed, not just b itself:
			// a backward wake (lower index, walk already past it) must
			// defer to the next cycle — the same-word revisit would
			// otherwise break registration-order semantics.
			done |= uint64(1)<<uint(b)<<1 - 1
			ps.stats.Ticks++
			ps.ticks[wi<<6|b].Tick(cycle)
		}
	}
}

// calSlots is the size of a phase's wakeup calendar: one slot per cycle
// of a lap, a power of two so the slot of a cycle is a mask.
const calSlots = 256

// calNode is one component's place in its phase's calendar: the cycle of
// its pending timed wakeup (0 = none) and its neighbours in that cycle's
// slot list, as component indices (-1 = end of list).
type calNode struct {
	at         uint64
	next, prev int32
}

// slot is the head of the list that holds the wakeups of cycle at (and
// of every cycle a whole number of laps from it).
func (ps *phaseSched) slot(at uint64) *int32 { return &ps.slots[at&(calSlots-1)] }

// arm files component idx's timed wakeup under cycle at, moving it there
// if a later one is pending. Arm, move and fire are O(1) and allocate
// nothing: the list is threaded through ps.cal, one node per component.
func (ps *phaseSched) arm(idx int32, at uint64) {
	n := &ps.cal[idx]
	switch {
	case n.at == 0:
		ps.pending++
		if ps.pending > ps.stats.TimerHeapMax {
			ps.stats.TimerHeapMax = ps.pending
		}
	case n.at <= at:
		return
	default:
		ps.unlink(idx)
	}
	head := ps.slot(at)
	*n = calNode{at: at, next: *head, prev: -1}
	if *head >= 0 {
		ps.cal[*head].prev = idx
	}
	*head = idx
}

// unlink takes component idx's node out of its slot list.
func (ps *phaseSched) unlink(idx int32) {
	n := &ps.cal[idx]
	if n.prev >= 0 {
		ps.cal[n.prev].next = n.next
	} else {
		*ps.slot(n.at) = n.next
	}
	if n.next >= 0 {
		ps.cal[n.next].prev = n.prev
	}
}

// fire wakes the components whose timed wakeup is this cycle. The slot
// also holds deadlines whole laps ahead (a source may look four laps
// ahead); those stay linked and are passed over once per lap. Firing only
// sets awake bits, so the order of a slot list is never observable.
func (ps *phaseSched) fire(cycle uint64) {
	for i := *ps.slot(cycle); i >= 0; {
		n := &ps.cal[i]
		next := n.next
		if n.at == cycle {
			ps.unlink(i)
			n.at = 0
			ps.pending--
			if ps.set(int(i)) {
				ps.stats.WakesTimer++
			} else {
				ps.stats.WakesSpurious++
			}
		}
		i = next
	}
}
