package flightrec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ownsim/internal/sbus"
)

// WatchdogConfig parameterizes the in-engine stall detectors. Each
// detector is off until its threshold is set, so a watchdog with the
// zero config only services dump requests.
type WatchdogConfig struct {
	// CheckEveryCy is the detector window in simulated cycles; 0 means
	// DefaultCheckEveryCy.
	CheckEveryCy uint64
	// StarveBudgetCy trips the starvation detector when any channel
	// writer has waited longer than this for the token; 0 disables.
	StarveBudgetCy uint64
	// StallWindows trips the quiescence-without-completion detector
	// after this many consecutive windows with flits in flight but no
	// ejection progress; 0 disables.
	StallWindows int
	// SatWindows trips the saturation detector after this many
	// consecutive windows in which a channel was busy at least
	// satFraction of the time; 0 disables.
	SatWindows int
}

// DefaultCheckEveryCy is the default detector window.
const DefaultCheckEveryCy = 256

// satFraction is the busy fraction a channel must sustain over a window
// to count as saturated.
const satFraction = 0.95

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

// Watchdog runs the stall detectors and serves state dumps. The
// deterministic variant is its sim.Ticker face: fabric registers it in
// the engine's Collect phase, so detection happens on simulated-cycle
// boundaries and is reproducible under fixed seeds. Detection never
// mutates simulation state, so an installed watchdog is inert.
//
// HTTP dump requests cross goroutines through a request channel that
// Tick services on the simulation goroutine (reading live arbitration
// state from any other goroutine would race); after Finish, requests
// render directly under a mutex against the final state.
type Watchdog struct {
	cfg WatchdogConfig

	// SnapshotFn builds a full state snapshot; OnTrip consumes trip
	// dumps; Progress reports (ejected packets, flits in flight);
	// Channels are the shared media to scan and Waits their per-writer
	// token-wait state, index-aligned. fabric's installer wires all five.
	SnapshotFn func(reason string) *Snapshot
	OnTrip     func(reason string, snap *Snapshot)
	Progress   func() (ejected uint64, inFlight int)
	Channels   []*sbus.Channel
	Waits      *WaitTable

	// cycle and finished are the only state the wall-clock watchdog
	// goroutine and HTTP handlers may read.
	cycle    atomic.Uint64
	finished atomic.Bool
	// mu serializes RequestDump against Finish and post-run renders.
	mu      sync.Mutex
	dumpReq chan dumpRequest

	lastEjected uint64
	stallRuns   int
	lastBusy    []uint64
	satRuns     []int

	trips       uint64
	dumps       int
	tripReasons []string
}

// NewWatchdog creates a watchdog with normalized configuration.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.CheckEveryCy == 0 {
		cfg.CheckEveryCy = DefaultCheckEveryCy
	}
	return &Watchdog{cfg: cfg, dumpReq: make(chan dumpRequest, 4)}
}

// Config returns the normalized configuration.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// Tick implements sim.Ticker: publish the cycle for the wall-clock
// variant, service pending dump requests on the simulation goroutine,
// and run the detectors once per window.
func (w *Watchdog) Tick(cycle uint64) {
	w.cycle.Store(cycle)
	select {
	case req := <-w.dumpReq:
		req.reply <- w.renderReply(req.format, "request")
	default:
	}
	if cycle == 0 || cycle%w.cfg.CheckEveryCy != 0 {
		return
	}
	w.check(cycle)
}

// check runs the three detectors at a window boundary.
func (w *Watchdog) check(cycle uint64) {
	if w.Progress != nil && w.cfg.StallWindows > 0 {
		ejected, inFlight := w.Progress()
		if inFlight > 0 && ejected == w.lastEjected {
			w.stallRuns++
			if w.stallRuns >= w.cfg.StallWindows {
				w.trip(fmt.Sprintf(
					"quiescence without completion: no ejection progress for %d windows (%d cy) with %d flits in flight at cycle %d",
					w.stallRuns, uint64(w.stallRuns)*w.cfg.CheckEveryCy, inFlight, cycle))
				w.stallRuns = 0
			}
		} else {
			w.stallRuns = 0
		}
		w.lastEjected = ejected
	}
	if w.cfg.StarveBudgetCy > 0 {
		for i, ch := range w.Channels {
			wi, since := w.Waits.OldestWaiter(i)
			if wi >= 0 && cycle-since > w.cfg.StarveBudgetCy {
				tok := ch.Introspect().Token
				w.trip(fmt.Sprintf(
					"token starvation on %s %q: writer %d (router %d) waiting %d cy > budget %d, token at writer %d (router %d)",
					ch.Kind, ch.Name, wi, ch.WriterID(wi), cycle-since, w.cfg.StarveBudgetCy,
					tok, ch.WriterID(tok)))
				break // one starvation trip per window is plenty
			}
		}
	}
	if w.cfg.SatWindows > 0 && len(w.Channels) > 0 {
		if w.lastBusy == nil {
			w.lastBusy = make([]uint64, len(w.Channels))
			w.satRuns = make([]int, len(w.Channels))
		}
		thresh := satFraction * float64(w.cfg.CheckEveryCy)
		for i, ch := range w.Channels {
			busy := ch.Stats().BusyCy
			delta := busy - w.lastBusy[i]
			w.lastBusy[i] = busy
			if float64(delta) >= thresh {
				w.satRuns[i]++
				if w.satRuns[i] >= w.cfg.SatWindows {
					w.trip(fmt.Sprintf(
						"sustained saturation on %s %q: busy %d of the last %d cy (>= %d consecutive windows) at cycle %d",
						ch.Kind, ch.Name, delta, w.cfg.CheckEveryCy, w.satRuns[i], cycle))
					w.satRuns[i] = 0
				}
			} else {
				w.satRuns[i] = 0
			}
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
	case "", "ndjson":
		err = snap.WriteNDJSON(&buf)
	case "text":
		err = snap.WriteText(&buf)
	default:
		return dumpReply{err: fmt.Errorf("flightrec: unknown dump format %q (want ndjson or text)", format)}
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
func (w *Watchdog) Finish(cycle uint64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cycle.Store(cycle)
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

// StartWall starts the wall-clock watchdog goroutine: if the simulated
// cycle has not advanced across one full interval, it captures every
// goroutine's stack and calls onStuck once per stuck episode. The
// goroutine reads only the atomic cycle counter — never simulation
// state — so it cannot perturb results. The returned stop function
// terminates it; it also exits by itself once Finish runs.
func (w *Watchdog) StartWall(interval time.Duration, onStuck func(cycle uint64, stacks []byte)) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		last := w.cycle.Load()
		fired := false
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if w.finished.Load() {
					return
				}
				now := w.cycle.Load()
				if now != last {
					last = now
					fired = false
					continue
				}
				if !fired {
					fired = true
					buf := make([]byte, 1<<20)
					n := runtime.Stack(buf, true)
					onStuck(now, buf[:n])
				}
			}
		}
	}()
	return func() { close(done) }
}
