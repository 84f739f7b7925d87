package flightrec

import (
	"fmt"

	"ownsim/internal/sbus"
)

// Window is the watchdog's check window in simulated cycles. It is also
// the sampling window of a record (obs.Start's probe), so a trip and the
// metrics row it follows describe the same 256 cycles.
const Window = 256

// maxDumps bounds the automatic trip dumps per run; later trips still
// count in Trips but emit nothing.
const maxDumps = 1

// maxTripReasons bounds the retained trip descriptions.
const maxTripReasons = 16

// Watchdog runs the liveness detectors and dumps the state at a trip.
// It is a sim.Ticker: fabric registers it in the engine's Collect
// phase, so detection happens on simulated-cycle boundaries and is
// reproducible under fixed seeds. Detection never mutates simulation
// state, so an installed watchdog is inert.
//
// One budget in cycles arms both detectors, checked once per Window:
// starvation (a channel writer has waited longer than the budget for its
// token) and stall (the network has ejected nothing for longer than the
// budget while flits are in flight). A zero budget turns both off; the
// watchdog then does nothing, but stays registered, so a record's engine
// block counts its Collect ticks either way.
type Watchdog struct {
	budget uint64

	// SnapshotFn builds a full state snapshot; OnTrip consumes trip
	// dumps; Progress reads the liveness counters a snapshot carries;
	// Channels are the shared media whose token waits to scan. fabric's
	// installer wires all four.
	SnapshotFn func(reason string) *Snapshot
	OnTrip     func(reason string, snap *Snapshot)
	Progress   func() Progress
	Channels   []*sbus.Channel

	// lastEjected is the ejection count at the previous window;
	// lastProgress is the cycle of the last window that ejected something
	// or had nothing in flight.
	lastEjected  uint64
	lastProgress uint64

	trips       uint64
	dumps       int
	tripReasons []string
}

// NewWatchdog creates a watchdog with the given liveness budget in
// cycles (0 = detectors off).
func NewWatchdog(budget uint64) *Watchdog {
	return &Watchdog{budget: budget}
}

// Budget returns the liveness budget in cycles.
func (w *Watchdog) Budget() uint64 { return w.budget }

// Tick implements sim.Ticker: run the detectors once per window.
func (w *Watchdog) Tick(cycle uint64) {
	if w.budget == 0 || cycle == 0 || cycle%Window != 0 {
		return
	}
	w.check(cycle)
}

// check runs both detectors at a window boundary.
func (w *Watchdog) check(cycle uint64) {
	if w.Progress != nil {
		p := w.Progress()
		inFlight := p.BufferedFlits + p.SrcQueued + p.ChannelQueued
		switch {
		case inFlight == 0 || p.Ejected != w.lastEjected:
			w.lastProgress = cycle
		case cycle-w.lastProgress > w.budget:
			w.trip(fmt.Sprintf(
				"quiescence without completion: no ejection progress for %d cy > budget %d with %d flits in flight at cycle %d",
				cycle-w.lastProgress, w.budget, inFlight, cycle))
			w.lastProgress = cycle // re-arm
		}
		w.lastEjected = p.Ejected
	}
	for _, ch := range w.Channels {
		if wi, since, starved := ch.OldestWaiter(cycle, w.budget); starved > 0 {
			tok := ch.Introspect().Token
			w.trip(fmt.Sprintf(
				"token starvation on %s %q: writer %d (router %d) waiting %d cy > budget %d, token at writer %d (router %d)",
				ch.Kind, ch.Name, wi, ch.WriterID(wi), cycle-since, w.budget,
				tok, ch.WriterID(tok)))
			break // one starvation trip per window is plenty
		}
	}
}

// trip records a detection and emits at most maxDumps automatic dumps.
func (w *Watchdog) trip(reason string) {
	w.trips++
	if len(w.tripReasons) < maxTripReasons {
		w.tripReasons = append(w.tripReasons, reason)
	}
	if w.OnTrip == nil || w.SnapshotFn == nil || w.dumps >= maxDumps {
		return
	}
	w.dumps++
	w.OnTrip(reason, w.SnapshotFn(reason))
}

// Trips returns the number of detector trips so far.
func (w *Watchdog) Trips() uint64 { return w.trips }

// TripReasons returns the first retained trip descriptions.
func (w *Watchdog) TripReasons() []string { return w.tripReasons }
