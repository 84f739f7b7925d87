package flightrec

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

type dumpRequest struct {
	format string
	reply  chan dumpReply
}

type dumpReply struct {
	data []byte
	err  error
}

// Watchdog runs the liveness detectors and serves state dumps. It is a
// sim.Ticker: fabric registers it in the engine's Collect phase, so
// detection happens on simulated-cycle boundaries and is reproducible
// under fixed seeds. Detection never mutates simulation state, so an
// installed watchdog is inert.
//
// One budget in cycles arms both detectors, checked once per Window:
// starvation (a channel writer has waited longer than the budget for its
// token) and stall (the network has ejected nothing for longer than the
// budget while flits are in flight). A zero budget turns both off; the
// watchdog then only services dump requests.
//
// HTTP dump requests cross goroutines through a request channel that
// Tick services on the simulation goroutine (reading live arbitration
// state from any other goroutine would race); after Finish, requests
// render directly under a mutex against the final state.
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

	// finished is the only state HTTP handlers may read.
	finished atomic.Bool
	// mu serializes RequestDump against Finish and post-run renders.
	mu      sync.Mutex
	dumpReq chan dumpRequest

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
	return &Watchdog{budget: budget, dumpReq: make(chan dumpRequest, 4)}
}

// Budget returns the liveness budget in cycles.
func (w *Watchdog) Budget() uint64 { return w.budget }

// Tick implements sim.Ticker: service pending dump requests on the
// simulation goroutine, and run the detectors once per window.
func (w *Watchdog) Tick(cycle uint64) {
	select {
	case req := <-w.dumpReq:
		req.reply <- w.renderReply(req.format, "request")
	default:
	}
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
func (w *Watchdog) Trips() uint64 {
	if w == nil {
		return 0
	}
	return w.trips
}

// TripReasons returns the first retained trip descriptions.
func (w *Watchdog) TripReasons() []string {
	if w == nil {
		return nil
	}
	return w.tripReasons
}

// renderReply renders a snapshot in the requested format.
func (w *Watchdog) renderReply(format, reason string) dumpReply {
	if w.SnapshotFn == nil {
		return dumpReply{err: errors.New("flightrec: no snapshot source installed")}
	}
	snap := w.SnapshotFn(reason)
	var buf bytes.Buffer
	var err error
	switch format {
	case "", "json":
		err = snap.WriteJSON(&buf)
	case "text":
		err = snap.WriteText(&buf)
	default:
		return dumpReply{err: fmt.Errorf("flightrec: unknown dump format %q (want json or text)", format)}
	}
	if err != nil {
		return dumpReply{err: err}
	}
	return dumpReply{data: buf.Bytes()}
}

// RequestDump renders a state dump for an out-of-goroutine caller (the
// /debug/dump HTTP handler). While the simulation runs, the request is
// handed to the next engine tick and rendered there; once Finish has
// been called, it renders directly against the final state. A nil
// watchdog (no flight recorder installed) reports an error.
func (w *Watchdog) RequestDump(format string) ([]byte, error) {
	if w == nil {
		return nil, errors.New("flightrec: no flight recorder installed")
	}
	w.mu.Lock()
	if w.finished.Load() {
		defer w.mu.Unlock()
		rep := w.renderReply(format, "request")
		return rep.data, rep.err
	}
	req := dumpRequest{format: format, reply: make(chan dumpReply, 1)}
	select {
	case w.dumpReq <- req:
	default:
		w.mu.Unlock()
		return nil, errors.New("flightrec: dump queue full")
	}
	w.mu.Unlock()
	rep := <-req.reply
	return rep.data, rep.err
}

// Finish marks the simulation complete and drains any dump requests
// that raced the finish (the engine will tick no more). The CLI tools
// call it right after the run, before artifact emission.
func (w *Watchdog) Finish() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.finished.Store(true)
	for {
		select {
		case req := <-w.dumpReq:
			req.reply <- w.renderReply(req.format, "request")
		default:
			return
		}
	}
}
