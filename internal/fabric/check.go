package fabric

import (
	"fmt"

	"ownsim/internal/check"
	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// InstallChecker subscribes the conformance checker c to every component
// tap of the network: per-flit source/sink events close the
// flit-conservation ledger, router events audit route legality against
// the topology's own routing tables and FIFO order per output VC,
// shared-channel events audit single-token-holder arbitration and delivery
// order, pool events catch mid-flight recycles, and a periodic structural
// sweep re-validates credit bounds and queue accounting (see
// internal/check for the full invariant catalog). The monitors' FIFO slots
// are sized here, from each router's ports and VCs, so a checked run
// allocates none. Install before Run, and at most once.
//
// Violations trip a flight-recorder-style dump: the first one captures a
// full state snapshot (Snapshot, naming the offending component and cycle
// in its reason) retrievable through CheckerSnapshot. onViolation, which
// may be nil, additionally observes every violation as it happens; only
// the first call carries the snapshot, later ones pass nil.
//
// The checker is one more subscriber of the taps the probe and flight
// recorder use, so it coexists with them in any order. Like them it is
// inert: a checked run's Result is bit-identical to an
// unchecked one (the structural sweep registers an always-on collect-phase
// ticker, which only pins RunUntil to per-cycle stepping — simulation
// state is unaffected).
func (n *Network) InstallChecker(c *check.Checker, onViolation func(v check.Violation, snap *flightrec.Snapshot)) {
	if c == nil {
		return
	}
	if n.Checker != nil {
		panic(fmt.Sprintf("fabric %s: checker installed twice", n.Name))
	}
	n.Checker = c

	prev := c.OnViolation
	c.OnViolation = func(v check.Violation) {
		var snap *flightrec.Snapshot
		if n.checkerSnap == nil {
			n.checkerSnap = n.Snapshot("invariant violation: " + v.String())
			snap = n.checkerSnap
		}
		if prev != nil {
			prev(v)
		}
		if onViolation != nil {
			onViolation(v, snap)
		}
	}

	for _, src := range n.Sources {
		if src == nil {
			continue
		}
		c.NewSourceMonitor(src.CoreID).Watch(&src.Tap, &src.Pool().Tap)
	}
	// A sink's VCs are its router's output VCs on the terminal port.
	vcs := 0
	for _, r := range n.Routers {
		vcs = max(vcs, r.Cfg.NumVCs)
		c.NewRouterMonitor(r.Cfg.ID, r.Cfg.Route, n.Diameter).Streams(r.Cfg.NumPorts, r.Cfg.NumVCs).Watch(&r.Tap)
	}
	for _, snk := range n.Sinks {
		if snk == nil {
			continue
		}
		c.NewSinkMonitor(snk.CoreID).Streams(vcs).Watch(&snk.Tap)
	}
	for _, ch := range n.Channels {
		c.NewChannelMonitor(channelLabel(ch)).Watch(&ch.Tap)
	}
	n.Eng.Register(sim.PhaseCollect, &checkSweep{n: n, c: c})
}

// CheckerSnapshot returns the state snapshot captured at the checker's
// first violation, or nil when the run was (so far) conformant.
func (n *Network) CheckerSnapshot() *flightrec.Snapshot { return n.checkerSnap }

// checkSweep is the checker's periodic structural auditor: every
// check.SweepEveryCy cycles it re-runs the routers', channels' and
// sources' CheckInvariants — each of which also names a lost wakeup, a
// component asleep next to work it could do — reporting breaches as
// credit/state violations. It reads state only, so it is as inert as the
// rest of the checker.
type checkSweep struct {
	n *Network
	c *check.Checker
}

// Tick implements sim.Ticker (collect phase).
func (s *checkSweep) Tick(cycle uint64) {
	if cycle%check.SweepEveryCy != 0 {
		return
	}
	for _, r := range s.n.Routers {
		if err := r.CheckInvariants(); err != nil {
			s.c.Report(cycle, check.RuleCredit, fmt.Sprintf("router %d", r.Cfg.ID), err.Error())
		}
	}
	for _, ch := range s.n.Channels {
		if err := ch.CheckInvariants(); err != nil {
			s.c.Report(cycle, check.RuleState, channelLabel(ch), err.Error())
		}
	}
	for _, src := range s.n.Sources {
		if src == nil {
			continue
		}
		if err := src.CheckInvariants(); err != nil {
			s.c.Report(cycle, check.RuleState, fmt.Sprintf("source %d", src.CoreID), err.Error())
		}
	}
}

// SetReferenceMode strips the engine-level optimizations from an
// assembled network before Run, turning it into the differential oracle's
// deliberately simple sequential interpreter: every component ticks every
// cycle (Waker.Sleep becomes a no-op, so the engine never goes quiescent
// and RunUntil never fast-forwards), sources poll their generators once
// per cycle and never ask them when their next packet is due
// (router.NextWaker), and generators allocate every packet freshly instead
// of drawing from the source freelists. By the engine's wake-protocol
// contract, the NextWaker contract, the generators' fixed draw order and
// the pool-safety guarantees all of that is semantically invisible, so a
// reference run must match the optimized engine bit for bit — DiffRuns
// asserts exactly that. Call after the topology builder and before Run.
func (n *Network) SetReferenceMode() {
	n.Eng.DisableSleep()
	for _, src := range n.Sources {
		if src != nil {
			src.NoPool = true
		}
	}
}

// RecordDeliveries subscribes a delivery log to every sink's EvEject,
// capturing each completed packet in global ejection order. Call before
// Run.
func (n *Network) RecordDeliveries() *check.DeliveryLog {
	log := &check.DeliveryLog{}
	for _, snk := range n.Sinks {
		if snk != nil {
			snk.Tap.Subscribe(noc.Mask(noc.EvEject), func(e noc.Event) { log.Record(e.Pkt, e.Cycle) })
		}
	}
	return log
}

// DiffRuns is the differential reference oracle: it runs the same traffic
// through a full-featured network and through a reference-mode rebuild
// (SetReferenceMode: sequential every-cycle interpretation, no pooling)
// and compares per-packet delivery order and latency event for event,
// plus the final Results byte for byte. A third network runs ts second,
// after other traffic (another seed, 1.5x the rate) cut off undrained, so
// the rewind finds flits, locks and pending wakeups everywhere; it must
// reproduce the fresh run the same way, which is what catches a component
// field that gained no line in its Reset. build must return a freshly
// assembled network each call; any divergence is returned as an error
// naming the first mismatching delivery.
func DiffRuns(build func() *Network, ts TrafficSpec, rs RunSpec) error {
	full := build()
	fullLog := full.RecordDeliveries()
	fullRes := full.Run(ts, rs)

	ref := build()
	ref.SetReferenceMode()
	refLog := ref.RecordDeliveries()
	refRes := ref.Run(ts, rs)

	reused := build()
	before, cut := ts, rs
	before.Seed, before.Rate, cut.DrainBudget = ts.Seed+1, 1.5*ts.Rate, 1
	reused.Run(before, cut)
	reusedLog := reused.RecordDeliveries()
	reusedRes := reused.Run(ts, rs)

	for _, twin := range []struct {
		name string
		log  *check.DeliveryLog
		res  Result
	}{{"reference", refLog, refRes}, {"reused", reusedLog, reusedRes}} {
		if err := check.CompareLogs(fullLog, twin.log); err != nil {
			return fmt.Errorf("%s network: %w", twin.name, err)
		}
		if fullRes != twin.res {
			return fmt.Errorf("fabric: engine and %s Results diverge:\n  engine: %+v\n  %s: %+v", twin.name, fullRes, twin.name, twin.res)
		}
	}
	return nil
}
