// Package check is the simulator's conformance layer: a runtime invariant
// engine that continuously audits protocol state while a simulation runs,
// plus the event-log types behind the differential reference oracle
// (fabric.DiffRuns).
//
// The Checker observes the network as a subscriber of the source, sink,
// router, shared-channel and packet-pool taps (noc.Tap) — the same seam
// the probe and flight-recorder layers use, so an uninstalled checker
// costs one predictable branch per event site and an installed one never
// mutates simulation state (a checked run's Result is bit-identical to an
// unchecked one). The invariant catalog (see DESIGN.md §14):
//
//   - conserve: every flit a source launches is delivered exactly once; a
//     packet's tail closes with launched == delivered == NumFlits, and a
//     pooled packet is never recycled mid-flight
//   - token: at most one (writer, packet) holds an MWSR waveguide or SWMR
//     group at a time, and only the holder releases it
//   - fifo: per virtual channel, a packet's flits cross every router and
//     shared channel in strictly ascending Seq order
//   - route: the output port a router's pipeline uses matches a fresh
//     evaluation of the topology's routing table, no router is visited
//     twice by one packet, and path lengths respect the diameter bound
//   - timestamp: every event a packet participates in carries a
//     non-decreasing cycle, and CreatedAt <= InjectedAt <= EjectedAt
//   - credit/state: periodic structural sweeps of router and channel
//     CheckInvariants (credits within [0, depth], queue accounting)
//
// Violations are recorded (bounded by MaxViolations) and surfaced through
// OnViolation, which fabric.Network.InstallChecker wires to a
// flight-recorder snapshot naming the offending component and cycle.
package check

import (
	"fmt"

	"ownsim/internal/noc"
	"ownsim/internal/router"
)

// Rule names for Violation.Rule.
const (
	RuleConserve = "conserve"
	RuleToken    = "token"
	RuleFIFO     = "fifo"
	RuleRoute    = "route"
	RuleTime     = "timestamp"
	RuleCredit   = "credit"
	RuleState    = "state"
)

// DefaultMaxViolations bounds recorded violation detail; the total count
// keeps running past it.
const DefaultMaxViolations = 64

// SweepEveryCy is the period in cycles of the structural invariant sweep
// (router/channel CheckInvariants) fabric.Network.InstallChecker
// schedules.
const SweepEveryCy = 1024

// Violation is one detected invariant breach.
type Violation struct {
	// Cycle is the simulated cycle the breach was observed.
	Cycle uint64
	// Rule is the invariant class (Rule* constants).
	Rule string
	// Component names the offending element ("photonic.cl0/home3.1",
	// "router 12", "source 5").
	Component string
	// Detail is a human-readable description of the breach.
	Detail string
}

// String renders the violation as "cycle N: component: rule: detail".
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s: %s", v.Cycle, v.Component, v.Rule, v.Detail)
}

// Checker is the runtime invariant engine. Create one with New, install it
// with fabric.Network.InstallChecker before Run, and interrogate it after
// (or during, through OnViolation). A Checker belongs to exactly one
// single-threaded simulation and must not be shared across networks.
type Checker struct {
	// MaxViolations caps recorded detail; 0 means DefaultMaxViolations.
	// The total count (Total) keeps running past the cap.
	MaxViolations int
	// OnViolation, when set, observes every counted violation as it
	// happens. fabric.Network.InstallChecker owns it — it wraps any
	// previously-set callback with the snapshot-on-first-violation
	// machinery — so set it before installing.
	OnViolation func(Violation)

	violations []Violation
	total      uint64
	events     uint64

	pkts map[uint64]*pktState
	free []*pktState
}

// New returns an empty checker with default bounds.
func New() *Checker {
	return &Checker{pkts: make(map[uint64]*pktState)}
}

// Violations returns the recorded violations in detection order (at most
// MaxViolations of them).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations detected, including any past the
// recording cap.
func (c *Checker) Total() uint64 { return c.total }

// Events returns the number of hook events audited; tests use it to prove
// the wiring is live.
func (c *Checker) Events() uint64 { return c.events }

// Err returns nil when no violation was detected, else an error quoting
// the first one.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violation(s); first: %s", c.total, c.violations[0])
}

// Report counts (and, within MaxViolations, records) a violation. The
// fabric structural sweep and fault-injection fixtures call it; the
// monitors use it internally.
func (c *Checker) Report(cycle uint64, rule, component, detail string) {
	c.report(Violation{Cycle: cycle, Rule: rule, Component: component, Detail: detail})
}

func (c *Checker) report(v Violation) {
	c.total++
	max := c.MaxViolations
	if max <= 0 {
		max = DefaultMaxViolations
	}
	if len(c.violations) < max {
		c.violations = append(c.violations, v)
	}
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// pktState is the checker's per-live-packet ledger, opened at the first
// source flit and closed at the sink tail (or at recycle).
type pktState struct {
	numFlits  int
	launched  int
	delivered int
	lastCycle uint64
	visited   []int // router IDs the head traversed, in order
}

// state returns (creating if needed) the ledger for p.
func (c *Checker) state(p *noc.Packet) *pktState {
	if st, ok := c.pkts[p.ID]; ok {
		return st
	}
	var st *pktState
	if n := len(c.free); n > 0 {
		st = c.free[n-1]
		c.free = c.free[:n-1]
		*st = pktState{visited: st.visited[:0]}
	} else {
		st = &pktState{}
	}
	c.pkts[p.ID] = st
	return st
}

// drop closes p's ledger and returns its storage to the freelist.
func (c *Checker) drop(id uint64) {
	if st, ok := c.pkts[id]; ok {
		delete(c.pkts, id)
		c.free = append(c.free, st)
	}
}

// LiveStates returns the number of open per-packet ledgers (packets
// launched but not yet ejected or recycled); diagnostics and leak tests
// read it.
func (c *Checker) LiveStates() int { return len(c.pkts) }

// touch audits the monotonic-timestamp invariant: events involving one
// packet must carry non-decreasing cycles.
func (c *Checker) touch(cycle uint64, p *noc.Packet, component string) {
	st := c.state(p)
	if cycle < st.lastCycle {
		c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: component,
			Detail: fmt.Sprintf("pkt %d event at cycle %d after cycle %d", p.ID, cycle, st.lastCycle)})
		return
	}
	st.lastCycle = cycle
}

// Recycle audits a packet's return to its pool: a pooled packet whose
// flits entered the network may only be recycled after full delivery.
// SourceMonitor.Watch subscribes it to the source pool's EvRecycle.
func (c *Checker) Recycle(p *noc.Packet) {
	c.events++
	st, ok := c.pkts[p.ID]
	if !ok {
		return // never launched (dropped at the source queue): legal
	}
	if st.delivered != st.launched || st.delivered != p.NumFlits {
		c.report(Violation{Cycle: st.lastCycle, Rule: RuleConserve,
			Component: fmt.Sprintf("source %d", p.Src),
			Detail: fmt.Sprintf("pkt %d recycled mid-flight: launched %d, delivered %d of %d flits",
				p.ID, st.launched, st.delivered, p.NumFlits)})
	}
	c.drop(p.ID)
}

// SourceMonitor audits one traffic source's injection stream.
type SourceMonitor struct {
	c    *Checker
	name string
}

// NewSourceMonitor returns the monitor for core coreID's source; Watch
// subscribes it.
func (c *Checker) NewSourceMonitor(coreID int) *SourceMonitor {
	return &SourceMonitor{c: c, name: fmt.Sprintf("source %d", coreID)}
}

// Flit audits one injected flit: it must extend the packet's launch
// ledger in Seq order.
func (m *SourceMonitor) Flit(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	st := c.state(f.Pkt)
	if f.Seq != st.launched {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d launched flit seq %d, want %d", f.Pkt.ID, f.Seq, st.launched)})
	}
	st.launched++
	st.numFlits = f.Pkt.NumFlits
	c.touch(cycle, f.Pkt, m.name)
}

// SinkMonitor audits one ejection sink's delivery stream.
type SinkMonitor struct {
	c    *Checker
	core int
	name string
}

// NewSinkMonitor returns the monitor for core coreID's sink; Watch
// subscribes it.
func (c *Checker) NewSinkMonitor(coreID int) *SinkMonitor {
	return &SinkMonitor{c: c, core: coreID, name: fmt.Sprintf("sink %d", coreID)}
}

// Flit audits one delivered flit; the tail closes the conservation ledger
// (launched == delivered == NumFlits) and the packet's timestamp chain.
func (m *SinkMonitor) Flit(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	p := f.Pkt
	st := c.state(p)
	if f.Seq != st.delivered {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d, want %d", p.ID, f.Seq, st.delivered)})
	}
	st.delivered++
	c.touch(cycle, p, m.name)
	if !f.IsTail() {
		return
	}
	if st.launched != p.NumFlits || st.delivered != p.NumFlits {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d tail ejected with %d launched / %d delivered of %d flits",
				p.ID, st.launched, st.delivered, p.NumFlits)})
	}
	if p.InjectedAt < p.CreatedAt || cycle < p.InjectedAt {
		c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: m.name,
			Detail: fmt.Sprintf("pkt %d timestamps out of order: created %d, injected %d, ejected %d",
				p.ID, p.CreatedAt, p.InjectedAt, cycle)})
	}
	c.drop(p.ID)
}

// RouterMonitor audits one router's pipeline decisions.
type RouterMonitor struct {
	c        *Checker
	id       int
	route    router.RouteFunc
	diameter int
	name     string
	nextSeq  map[uint64]int
}

// NewRouterMonitor returns the monitor for router id. route is the
// topology's routing table for that router (re-evaluated to audit the
// pipeline's decisions; routing in this repository is deterministic, so a
// second evaluation is side-effect free); diameter > 0 bounds path
// lengths. Watch subscribes it.
func (c *Checker) NewRouterMonitor(id int, route router.RouteFunc, diameter int) *RouterMonitor {
	return &RouterMonitor{
		c:        c,
		id:       id,
		route:    route,
		diameter: diameter,
		name:     fmt.Sprintf("router %d", id),
		nextSeq:  make(map[uint64]int),
	}
}

// Route audits one route computation: the pipeline's decision must match
// a fresh evaluation of the routing table, the packet must not revisit a
// router, and its path must respect the diameter bound.
func (m *RouterMonitor) Route(cycle uint64, p *noc.Packet, inPort, outPort int, vcMask uint32) {
	c := m.c
	c.events++
	if m.route != nil {
		wantPort, wantMask := m.route(p, inPort)
		if wantPort != outPort || wantMask != vcMask {
			c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
				Detail: fmt.Sprintf("pkt %d (src %d dst %d, in %d): pipeline chose out %d mask %#x, routing table says out %d mask %#x",
					p.ID, p.Src, p.Dst, inPort, outPort, vcMask, wantPort, wantMask)})
		}
	}
	st := c.state(p)
	for _, r := range st.visited {
		if r == m.id {
			c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
				Detail: fmt.Sprintf("pkt %d (src %d dst %d) revisits router %d; path %v", p.ID, p.Src, p.Dst, m.id, st.visited)})
			break
		}
	}
	st.visited = append(st.visited, m.id)
	if m.diameter > 0 && len(st.visited) > m.diameter {
		c.report(Violation{Cycle: cycle, Rule: RuleRoute, Component: m.name,
			Detail: fmt.Sprintf("pkt %d path length %d exceeds diameter %d", p.ID, len(st.visited), m.diameter)})
	}
	c.touch(cycle, p, m.name)
}

// Flit audits one switch-allocation grant: a packet's flits cross the
// router in strictly ascending Seq order (per-VC FIFO through the
// wormhole pipeline).
func (m *RouterMonitor) Flit(cycle uint64, f *noc.Flit, inPort, outPort, outVC int) {
	c := m.c
	c.events++
	pid := f.Pkt.ID
	if want := m.nextSeq[pid]; f.Seq != want {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d crossed switch with flit seq %d, want %d (in %d -> out %d vc %d)",
				pid, f.Seq, want, inPort, outPort, outVC)})
	}
	if f.IsTail() {
		delete(m.nextSeq, pid)
	} else {
		m.nextSeq[pid] = f.Seq + 1
	}
	c.touch(cycle, f.Pkt, m.name)
}

// ChannelMonitor audits one shared channel's token arbitration and
// delivery stream.
type ChannelMonitor struct {
	c    *Checker
	name string

	held         bool
	lockedPkt    uint64
	lockedWriter int
	nextSeq      map[uint64]int
}

// NewChannelMonitor returns the monitor for the named shared channel;
// Watch subscribes it.
func (c *Checker) NewChannelMonitor(name string) *ChannelMonitor {
	return &ChannelMonitor{c: c, name: name, lockedWriter: -1, nextSeq: make(map[uint64]int)}
}

// Acquire audits one token grant: the medium must be free (single token
// holder per MWSR waveguide / SWMR group), and the granted packet's front
// must be a head.
func (m *ChannelMonitor) Acquire(cycle uint64, p *noc.Packet, writer, rx int) {
	c := m.c
	c.events++
	if m.held {
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("token granted to writer %d (pkt %d) while writer %d still holds it for pkt %d",
				writer, p.ID, m.lockedWriter, m.lockedPkt)})
	}
	m.held = true
	m.lockedPkt = p.ID
	m.lockedWriter = writer
	c.touch(cycle, p, m.name)
}

// Release audits one lock release: only the current holder may release,
// and only for the packet it was granted for.
func (m *ChannelMonitor) Release(cycle uint64, p *noc.Packet, writer int) {
	c := m.c
	c.events++
	switch {
	case !m.held:
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("writer %d released pkt %d but the medium is free", writer, p.ID)})
	case p.ID != m.lockedPkt || writer != m.lockedWriter:
		c.report(Violation{Cycle: cycle, Rule: RuleToken, Component: m.name,
			Detail: fmt.Sprintf("writer %d released pkt %d but writer %d holds the lock for pkt %d",
				writer, p.ID, m.lockedWriter, m.lockedPkt)})
	}
	m.held = false
	c.touch(cycle, p, m.name)
}

// Deliver audits one flit landing at a receiver: whole-packet locking
// plus constant propagation make per-channel deliveries arrive in Seq
// order per packet.
func (m *ChannelMonitor) Deliver(cycle uint64, f *noc.Flit, rx int) {
	c := m.c
	c.events++
	pid := f.Pkt.ID
	if want := m.nextSeq[pid]; f.Seq != want {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d to rx %d, want %d", pid, f.Seq, rx, want)})
	}
	if f.IsTail() {
		delete(m.nextSeq, pid)
	} else {
		m.nextSeq[pid] = f.Seq + 1
	}
	c.touch(cycle, f.Pkt, m.name)
}

// Watch subscribes the monitor to its source's tap (every launched flit)
// and to the source's packet pool (every recycle).
func (m *SourceMonitor) Watch(src, pool *noc.Tap) {
	src.Subscribe(noc.Mask(noc.EvLaunch), func(e noc.Event) { m.Flit(e.Cycle, e.Flit) })
	pool.Subscribe(noc.Mask(noc.EvRecycle), func(e noc.Event) { m.c.Recycle(e.Pkt) })
}

// Watch subscribes the monitor to its sink's tap (every arrived flit).
func (m *SinkMonitor) Watch(snk *noc.Tap) {
	snk.Subscribe(noc.Mask(noc.EvArrive), func(e noc.Event) { m.Flit(e.Cycle, e.Flit) })
}

// Watch subscribes the monitor to its router's tap: route computations
// and switch-allocation grants.
func (m *RouterMonitor) Watch(r *noc.Tap) {
	r.Subscribe(noc.Mask(noc.EvRoute, noc.EvSwitch), func(e noc.Event) {
		if e.Kind == noc.EvRoute {
			m.Route(e.Cycle, e.Pkt, e.A, e.B, uint32(e.C))
		} else {
			m.Flit(e.Cycle, e.Flit, e.A, e.B, e.C)
		}
	})
}

// Watch subscribes the monitor to its channel's tap: token grants, lock
// releases and receiver-side deliveries.
func (m *ChannelMonitor) Watch(ch *noc.Tap) {
	ch.Subscribe(noc.Mask(noc.EvGrant, noc.EvRelease, noc.EvDeliver), func(e noc.Event) {
		switch e.Kind {
		case noc.EvGrant:
			m.Acquire(e.Cycle, e.Pkt, e.A, e.B)
		case noc.EvRelease:
			m.Release(e.Cycle, e.Pkt, e.A)
		case noc.EvDeliver:
			m.Deliver(e.Cycle, e.Flit, e.A)
		}
	})
}
