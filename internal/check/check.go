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
//   - conserve: a source launches one packet at a time, in Seq order;
//     every flit it launches is delivered exactly once; a packet's tail
//     closes with launched == delivered == NumFlits, and a pooled packet
//     is never recycled mid-flight
//   - token: at most one (writer, packet) holds an MWSR waveguide or SWMR
//     group at a time, and only the holder releases it
//   - fifo: each stream — a router output VC, a shared channel, a sink
//     VC — carries one packet at a time, its flits in strictly ascending
//     Seq order
//   - route: the output port a router's pipeline uses matches a fresh
//     evaluation of the topology's routing table, no router is visited
//     twice by one packet, and path lengths respect the diameter bound
//   - timestamp: events carry non-decreasing cycles, across all packets
//     (one clock), and CreatedAt <= InjectedAt <= EjectedAt
//   - credit/state: periodic structural sweeps of router and channel
//     CheckInvariants (credits within [0, depth], queue accounting)
//
// Per-flit events touch only fixed per-stream slots; the per-packet
// ledger is looked up a few times per packet, in a noc.IDTable.
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
// (fabric.Network.Audit: router, channel and source CheckInvariants)
// fabric.Network.InstallChecker schedules.
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
	// happens. The installer owns it: fabric.Network.InstallChecker sets
	// it to the snapshot-on-first-violation callback, replacing any set
	// before, and passes each violation on to its own onViolation
	// argument.
	OnViolation func(Violation)

	violations []Violation
	total      uint64
	events     uint64

	// clock is the cycle of the latest audited event. The network emits
	// its events in simulation order, so one clock for all of them is the
	// timestamp rule.
	clock uint64

	// pkts holds the ledgers of live packets; free keeps closed ones for
	// reuse.
	pkts noc.IDTable[pktState]
	free []*pktState
}

// New returns an empty checker with default bounds.
func New() *Checker { return &Checker{} }

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
// source flit and closed at the sink tail (or at recycle). It is touched
// per packet, not per flit: at the first and the last launch, at every
// route computation and at the tail's ejection or the recycle.
type pktState struct {
	launched int   // flits the source launched, recorded at the last launch
	visited  []int // router IDs the head traversed, in order
}

// open returns packet id's ledger, opening one if it has none.
func (c *Checker) open(id uint64) *pktState {
	if st := c.pkts.Get(id); st != nil {
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
	c.pkts.Put(id, st)
	return st
}

// close removes id's ledger, returns its storage to the freelist and
// returns it for a last read, or nil when id had none.
func (c *Checker) close(id uint64) *pktState {
	st := c.pkts.Delete(id)
	if st != nil {
		c.free = append(c.free, st)
	}
	return st
}

// LiveStates returns the number of open per-packet ledgers (packets
// launched but not yet ejected or recycled); diagnostics and leak tests
// read it.
func (c *Checker) LiveStates() int { return c.pkts.Len() }

// touch audits the monotonic-timestamp invariant: no event may carry a
// cycle below one already audited, whichever packets the two events
// concern.
func (c *Checker) touch(cycle uint64, p *noc.Packet, component string) {
	if cycle < c.clock {
		c.reportTime(cycle, p, component)
		return
	}
	c.clock = cycle
}

// reportTime reports an event that went back in time; kept out of touch,
// which runs on every event.
func (c *Checker) reportTime(cycle uint64, p *noc.Packet, component string) {
	c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: component,
		Detail: fmt.Sprintf("pkt %d event at cycle %d after cycle %d", p.ID, cycle, c.clock)})
}

// stream is one FIFO audit slot of a medium that carries packets whole,
// one after another: a router output VC, a shared channel, a source, a
// sink VC. It holds the packet the medium is mid-way through and the Seq
// that packet's next flit must carry; next == 0 means no packet is open,
// so the next flit must be a Seq 0, of any packet. n counts the flits of
// the current packet the stream saw.
type stream struct {
	pkt  uint64
	next int
	n    int
}

// holds reports whether the stream is mid-way through packet id.
func (s *stream) holds(id uint64) bool { return s.next != 0 && s.pkt == id }

// step moves the stream past f: a tail closes it, any other flit leaves
// it open on f's packet. It returns the stream as it was before f and
// whether f was the flit it expected.
func (s *stream) step(f *noc.Flit) (prev stream, ok bool) {
	prev = *s
	id := f.Pkt.ID
	same := prev.next != 0 && prev.pkt == id // f continues the open packet
	ok = f.Seq == prev.next && (same || prev.next == 0)
	if !same {
		s.pkt, s.n = id, 0
	}
	s.n++
	s.next = f.Seq + 1
	if f.IsTail() {
		s.next = 0
	}
	return prev, ok
}

// want renders what the stream expected next, for a violation's detail.
func (s stream) want() string {
	if s.next == 0 {
		return "seq 0"
	}
	return fmt.Sprintf("pkt %d seq %d", s.pkt, s.next)
}

// Recycle audits a packet's return to its pool: a pooled packet whose
// flits entered the network may only be recycled after full delivery,
// and the sink tail closes the ledger of a delivered one, so a ledger
// still open here is a mid-flight recycle. SourceMonitor.Watch
// subscribes it to the source pool's EvRecycle.
func (c *Checker) Recycle(p *noc.Packet) {
	c.events++
	st := c.close(p.ID)
	if st == nil {
		return // never launched (dropped at the source queue), or ejected: legal
	}
	detail := fmt.Sprintf("pkt %d recycled mid-flight: its tail of %d flits was not yet launched", p.ID, p.NumFlits)
	if st.launched > 0 {
		detail = fmt.Sprintf("pkt %d recycled mid-flight: launched %d of %d flits, tail not ejected", p.ID, st.launched, p.NumFlits)
	}
	c.report(Violation{Cycle: c.clock, Rule: RuleConserve,
		Component: fmt.Sprintf("source %d", p.Src), Detail: detail})
}

// SourceMonitor audits one traffic source's injection stream.
type SourceMonitor struct {
	c    *Checker
	name string
	s    stream // a source has one packet in flight at a time
}

// NewSourceMonitor returns the monitor for core coreID's source; Watch
// subscribes it.
func (c *Checker) NewSourceMonitor(coreID int) *SourceMonitor {
	return &SourceMonitor{c: c, name: fmt.Sprintf("source %d", coreID)}
}

// Flit audits one injected flit: a source launches one packet at a time,
// its flits in Seq order. The first launch opens the packet's ledger and
// the last records how many flits were launched.
func (m *SourceMonitor) Flit(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	p := f.Pkt
	prev, ok := m.s.step(f)
	if !ok {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d launched flit seq %d, want %s", p.ID, f.Seq, prev.want())})
	}
	if !prev.holds(p.ID) || f.IsTail() { // the packet's first or last launch
		st := c.open(p.ID)
		if f.IsTail() {
			st.launched = m.s.n
		}
	}
	c.touch(cycle, p, m.name)
}

// SinkMonitor audits one ejection sink's delivery stream.
type SinkMonitor struct {
	c    *Checker
	core int
	name string
	vcs  []stream // indexed by the arriving flit's VC
}

// NewSinkMonitor returns the monitor for core coreID's sink; Watch
// subscribes it.
func (c *Checker) NewSinkMonitor(coreID int) *SinkMonitor {
	return &SinkMonitor{c: c, core: coreID, name: fmt.Sprintf("sink %d", coreID)}
}

// Streams sizes the monitor's per-VC slots for a sink fed over vcs VCs.
// fabric.Network.InstallChecker calls it, so a checked run allocates no
// slot; an unsized monitor grows its slots at a VC's first flit.
func (m *SinkMonitor) Streams(vcs int) *SinkMonitor {
	if vcs > len(m.vcs) {
		m.vcs = append(m.vcs, make([]stream, vcs-len(m.vcs))...)
	}
	return m
}

// Flit audits one delivered flit: each VC delivers one packet at a time,
// its flits in Seq order. The tail closes the conservation ledger
// (launched == delivered == NumFlits) and checks the packet's timestamp
// chain.
func (m *SinkMonitor) Flit(cycle uint64, f *noc.Flit) {
	c := m.c
	c.events++
	p := f.Pkt
	if f.VC >= len(m.vcs) {
		m.Streams(f.VC + 1)
	}
	s := &m.vcs[f.VC]
	if prev, ok := s.step(f); !ok {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d, want %s", p.ID, f.Seq, prev.want())})
	}
	c.touch(cycle, p, m.name)
	if !f.IsTail() {
		return
	}
	launched := 0 // a packet no source launched has no ledger
	if st := c.close(p.ID); st != nil {
		launched = st.launched
	}
	if launched != p.NumFlits || s.n != p.NumFlits {
		c.report(Violation{Cycle: cycle, Rule: RuleConserve, Component: m.name,
			Detail: fmt.Sprintf("pkt %d tail ejected with %d launched / %d delivered of %d flits",
				p.ID, launched, s.n, p.NumFlits)})
	}
	if p.InjectedAt < p.CreatedAt || cycle < p.InjectedAt {
		c.report(Violation{Cycle: cycle, Rule: RuleTime, Component: m.name,
			Detail: fmt.Sprintf("pkt %d timestamps out of order: created %d, injected %d, ejected %d",
				p.ID, p.CreatedAt, p.InjectedAt, cycle)})
	}
}

// RouterMonitor audits one router's pipeline decisions.
type RouterMonitor struct {
	c        *Checker
	id       int
	route    router.RouteFunc
	diameter int
	name     string
	// outs holds one stream per output VC, port-major (port*vcs + vc): an
	// output VC is held by one packet from VC allocation to its tail.
	outs []stream
	vcs  int
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
	}
}

// Streams sizes the monitor's output-VC slots for a router of ports
// ports with vcs VCs each. fabric.Network.InstallChecker calls it, so a
// checked run allocates no slot; an unsized monitor grows its slots at
// the first flit that needs a larger layout.
func (m *RouterMonitor) Streams(ports, vcs int) *RouterMonitor {
	if m.vcs > 0 {
		ports = max(ports, len(m.outs)/m.vcs)
	}
	vcs = max(vcs, m.vcs)
	if ports*vcs == len(m.outs) {
		return m
	}
	outs := make([]stream, ports*vcs)
	for i, s := range m.outs {
		outs[i/m.vcs*vcs+i%m.vcs] = s
	}
	m.outs, m.vcs = outs, vcs
	return m
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
	st := c.open(p.ID)
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

// Flit audits one switch-allocation grant: each output VC carries one
// packet at a time, its flits in strictly ascending Seq order (wormhole
// switching holds the VC from VC allocation to the tail).
func (m *RouterMonitor) Flit(cycle uint64, f *noc.Flit, inPort, outPort, outVC int) {
	c := m.c
	c.events++
	if outVC >= m.vcs || outPort*m.vcs+outVC >= len(m.outs) {
		m.Streams(outPort+1, outVC+1)
	}
	if prev, ok := m.outs[outPort*m.vcs+outVC].step(f); !ok {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d crossed switch with flit seq %d, want %s (in %d -> out %d vc %d)",
				f.Pkt.ID, f.Seq, prev.want(), inPort, outPort, outVC)})
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
	// s is the delivery stream: the whole-packet lock and one flight
	// time make the channel's deliveries packet-contiguous.
	s stream
}

// NewChannelMonitor returns the monitor for the named shared channel;
// Watch subscribes it.
func (c *Checker) NewChannelMonitor(name string) *ChannelMonitor {
	return &ChannelMonitor{c: c, name: name, lockedWriter: -1}
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

// Deliver audits one flit landing at a receiver: the channel delivers one
// packet at a time, its flits in Seq order.
func (m *ChannelMonitor) Deliver(cycle uint64, f *noc.Flit, rx int) {
	c := m.c
	c.events++
	if prev, ok := m.s.step(f); !ok {
		c.report(Violation{Cycle: cycle, Rule: RuleFIFO, Component: m.name,
			Detail: fmt.Sprintf("pkt %d delivered flit seq %d to rx %d, want %s", f.Pkt.ID, f.Seq, rx, prev.want())})
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
