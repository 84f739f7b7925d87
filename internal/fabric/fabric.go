// Package fabric assembles complete simulated networks: routers, wires,
// traffic sources, ejection sinks, the statistics collector and the power
// meter, all driven by one sim.Engine. Topology packages (CMESH, OptXB,
// p-Clos, wireless-CMESH) and the OWN core build on it.
//
// A Network simulates on the goroutine that runs it; run many Networks
// concurrently (one per goroutine) for parameter sweeps — see the core
// package's sweep runner.
package fabric

import (
	"fmt"
	"strings"

	"ownsim/internal/check"
	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
)

// Network is one assembled NoC instance.
type Network struct {
	// Name identifies the topology instance in reports.
	Name string
	// NumCores is the number of terminals.
	NumCores int

	Eng       *sim.Engine
	Meter     *power.Meter
	Collector *stats.Collector
	// Probe is the installed observability layer; nil (the default)
	// disables all instrumentation. See InstallProbe.
	Probe *probe.Probe
	// FlightRec is the installed diagnostics layer (the recorder behind
	// the record's state dump); nil disables it. See InstallFlightRecorder.
	FlightRec *flightrec.FlightRecorder
	// Checker is the installed conformance layer; nil (the default)
	// disables it. See InstallChecker.
	Checker *check.Checker

	// checkerSnap is the state snapshot taken at the checker's first
	// violation; see CheckerSnapshot.
	checkerSnap *flightrec.Snapshot

	Routers []*router.Router
	Sources []*router.Source
	Sinks   []*router.Sink
	// Channels tracks the shared media (photonic subchannels, wireless
	// links) for the probe's gauges, the state dump and the audit.
	Channels []*sbus.Channel
	// Edges records inter-router connectivity for visualization.
	Edges []Edge

	// Diameter, when set by the topology, bounds packet hop counts;
	// CheckInvariants verifies MaxHops against it.
	Diameter int
	// CoresPerTile is the topology's concentration (cores sharing one
	// tile router); builders set it so diagnostics can aggregate
	// per-tile. 0 is treated as 1 (one core per tile).
	CoresPerTile int

	// wheel delivers the latest run of wires; wheelEnd is the engine's
	// Delivery component count after its last wire joined.
	wheel    *noc.Wheel
	wheelEnd int
}

// Tiles returns the number of source tiles: the cores in groups of
// CoresPerTile.
func (n *Network) Tiles() int {
	cpt := max(n.CoresPerTile, 1)
	return (n.NumCores + cpt - 1) / cpt
}

// New creates an empty network shell. Cores (terminals) are added with
// AddTerminal; the collector is installed by SetupTraffic.
func New(name string, numCores int, meter *power.Meter) *Network {
	return &Network{
		Name:     name,
		NumCores: numCores,
		Eng:      sim.NewEngine(),
		Meter:    meter,
		Sources:  make([]*router.Source, numCores),
		Sinks:    make([]*router.Sink, numCores),
	}
}

// AddRouter creates a router, registers it with the engine, and tracks it.
// The meter is inherited from the network and reads the router's grant and
// VC-allocation counts.
func (n *Network) AddRouter(cfg router.Config) *router.Router {
	cfg.Meter = n.Meter
	r := router.New(cfg)
	n.Meter.ReadRouter(cfg.NumPorts, func() (grants, vcAllocs uint64) {
		c := r.Counts()
		return c.SAGrants, c.VCAllocs
	})
	n.Routers = append(n.Routers, r)
	r.SetWaker(n.Eng.RegisterWakeable(sim.PhaseCompute, r))
	return r
}

// LinkSpec describes one wire between two ports.
type LinkSpec struct {
	// Delay is the forward latency (ST+LT) in cycles.
	Delay int
	// CreditDelay is the reverse credit latency; 0 means Delay.
	CreditDelay int
	// SerializeCy is the per-flit channel occupancy at the upstream
	// output port (bisection-bandwidth equalization knob).
	SerializeCy int
	// LengthMM, when > 0, prices each flit as an electrical link
	// traversal of that length.
	LengthMM float64
	// Photonic, when true, prices each flit as a photonic link traversal
	// instead (used by the p-Clos inter-switch links).
	Photonic bool
}

func (l LinkSpec) creditDelay() int {
	if l.CreditDelay > 0 {
		return l.CreditDelay
	}
	return l.Delay
}

// Connect wires output port aPort of router a to input port bPort of
// router b. Buffer depth (credits) is taken from b's configuration. The
// wire joins the network's current delivery wheel (see deliver), so
// consecutive Connect calls cost the engine one component.
func (n *Network) Connect(a *router.Router, aPort int, b *router.Router, bPort int, spec LinkSpec) *noc.Wire {
	w := noc.NewWire(a, aPort, b, bPort, spec.Delay, spec.creditDelay())
	switch {
	case spec.Photonic:
		n.Meter.ReadLink(&w.Delivered, 0)
	case spec.LengthMM > 0:
		n.Meter.ReadLink(&w.Delivered, spec.LengthMM)
	}
	a.ConnectOutput(aPort, w, b.Cfg.BufDepth, spec.SerializeCy)
	b.ConnectInput(bPort, w)
	n.deliver(w)
	kind := Elec
	if spec.Photonic {
		kind = Photonic
	}
	n.NoteEdge(a.Cfg.ID, b.Cfg.ID, kind)
	return w
}

// wiresAlone registers every wire as its own Delivery component, the
// reference the wheel is tested against (export_test.go).
var wiresAlone bool

// deliver puts w on the network's current wheel. A Delivery component
// registered since the wheel's last wire starts a new wheel, registered
// where w would have been: flits reach their receivers in the order that
// registering every wire on its own gives.
func (n *Network) deliver(w *noc.Wire) {
	if wiresAlone {
		w.SetWaker(n.Eng.RegisterWakeable(sim.PhaseDelivery, w))
		return
	}
	if n.wheel == nil || n.Eng.Components(sim.PhaseDelivery) != n.wheelEnd {
		n.wheel = &noc.Wheel{}
		n.wheel.SetWaker(n.Eng.RegisterWakeable(sim.PhaseDelivery, n.wheel))
		n.wheelEnd = n.Eng.Components(sim.PhaseDelivery)
	}
	n.wheel.Add(w)
}

// Edge is one directed inter-router connection for visualization. It is
// 12 bytes because a crossbar notes tiles² of them (OptXB-1024: 65 280).
type Edge struct {
	// From and To are router IDs.
	From, To int32
	Kind     EdgeKind
}

// EdgeKind is the medium of an Edge: DOT draws electrical links solid,
// photonic ones blue and wireless ones red dashed.
type EdgeKind uint8

// The edge media.
const (
	Elec EdgeKind = iota
	Photonic
	Wireless
)

// NoteEdge records connectivity for DOT export; Connect and the
// photonic/wireless builders call it.
func (n *Network) NoteEdge(from, to int, kind EdgeKind) {
	n.Edges = append(n.Edges, Edge{From: int32(from), To: int32(to), Kind: kind})
}

// AddTerminal attaches core coreID to router r: a source feeding input
// port inPort and a sink fed from output port outPort. Terminal links are
// full-width single-cycle wires (injection/ejection are not the bottleneck
// in any of the paper's topologies).
func (n *Network) AddTerminal(coreID int, r *router.Router, inPort, outPort int) {
	n.AddTerminalSplit(coreID, r, inPort, r, outPort)
}

// AddTerminalSplit attaches a core whose injection and ejection sides sit
// on different routers (the unfolded p-Clos attaches sources to ingress
// switches and sinks to egress switches). Its two terminal wires join the
// current delivery wheel as Connect's do; the source is a Compute-phase
// component of its own.
func (n *Network) AddTerminalSplit(coreID int, in *router.Router, inPort int, out *router.Router, outPort int) {
	if n.Sources[coreID] != nil {
		panic(fmt.Sprintf("fabric: terminal %d added twice", coreID))
	}
	src := router.NewSource(coreID, nil, in.Cfg.NumVCs, in.Cfg.BufDepth)
	wIn := noc.NewWire(src, 0, in, inPort, 1, 1)
	src.SetConduit(wIn)
	in.ConnectInput(inPort, wIn)

	snk := router.NewSink(coreID)
	// Sinks read the engine clock directly instead of ticking every
	// cycle just to track time; they need no registration at all.
	snk.SetClock(n.Eng)
	wOut := noc.NewWire(out, outPort, snk, 0, 1, 1)
	out.ConnectOutput(outPort, wOut, out.Cfg.BufDepth, 1)
	snk.SetUpstream(wOut)

	n.deliver(wIn)
	n.deliver(wOut)
	src.SetWaker(n.Eng.RegisterWakeable(sim.PhaseCompute, src))

	n.Sources[coreID] = src
	n.Sinks[coreID] = snk
}

// TrafficSpec parameterizes a run's offered load.
type TrafficSpec struct {
	Pattern traffic.Pattern
	// Rate is offered load in flits/node/cycle.
	Rate float64
	// PktFlits is the packet length (the paper-standard 5 unless set).
	PktFlits int
	// Seed decorrelates runs.
	Seed uint64
	// Classify assigns traffic classes (VC disciplines); may be nil.
	Classify traffic.Classifier
	// Policy restricts injection VCs per packet; may be nil.
	Policy router.VCPolicy
}

// RunSpec sets the measurement methodology: Warmup cycles discarded,
// Measure cycles whose packets are tagged and whose ejections make the
// throughput, then a drain of an unsaturated run until every tagged packet
// has ejected. The saturation verdict (stats.Summary.Saturated) needs a
// window much longer than the network's latency: over a window of one to
// three latencies, accepted/offered measures how the network fills.
type RunSpec struct {
	Warmup  uint64
	Measure uint64
	// DrainBudget bounds the drain phase of an unsaturated run; 0 means
	// 4x Measure.
	DrainBudget uint64
	// ReservoirCap is ignored: the percentiles cover every measured
	// packet. It stays only because the benchmark harness still sets it.
	ReservoirCap int
}

func (r RunSpec) drain() uint64 {
	if r.DrainBudget > 0 {
		return r.DrainBudget
	}
	return 4 * r.Measure
}

// Result is the outcome of one measured run.
type Result struct {
	stats.Summary
	// Drained reports whether all measured packets had ejected when the
	// run stopped. It is a fact, not a verdict: Saturated decides. A
	// saturated run stops at the end of its window, usually undrained; an
	// unsaturated one that is not drained ran out of drain budget. A
	// drained network is not an empty one: packets created after the
	// window are unmeasured and may still be in flight.
	Drained bool
	// Power is the power breakdown over the cycles simulated: warmup +
	// measure for a saturated run.
	Power power.Breakdown
	// AvgWirelessChannelMW is the paper's Figure 5 metric.
	AvgWirelessChannelMW float64
}

// Run attaches traffic, simulates warmup+measure, drains unless the window
// was saturated, and reports. A saturated run's latency is not reported
// anywhere, so a drain would finish nothing anyone reads. A network that
// has run rewinds itself first, so consecutive runs on one network give
// what a fresh build per run gives, without the builds.
func (n *Network) Run(ts TrafficSpec, rs RunSpec) Result {
	if ts.PktFlits == 0 {
		ts.PktFlits = 5
	}
	n.rewind()
	col := stats.NewCollector(n.NumCores, rs.Warmup, rs.Warmup+rs.Measure)
	gens := traffic.NewBernoullis(n.NumCores, ts.Pattern, ts.Rate, ts.PktFlits, ts.Seed, ts.Classify)
	n.attach(col, ts.Policy, func(id int) router.Generator {
		gen := &gens[id]
		gen.MeasureFrom, gen.MeasureTo = rs.Warmup, rs.Warmup+rs.Measure
		return gen
	})
	n.Eng.Run(rs.Warmup + rs.Measure)
	drained := col.Pending() == 0
	if !col.Summary().Saturated() {
		drained = n.Eng.RunUntil(func() bool { return col.Pending() == 0 }, rs.drain())
	}
	n.Probe.Flush(n.Eng.Cycle())
	return n.Priced(Result{Summary: col.Summary(), Drained: drained})
}

// attach makes col the run's collector and wires every terminal to it:
// source id gets gen(id) and policy, and reports what it accepts and
// drops to col, as its sink reports what it ejects.
func (n *Network) attach(col *stats.Collector, policy router.VCPolicy, gen func(id int) router.Generator) {
	n.Collector = col
	onDropped := col.OnDropped // shared by every source: a method value allocates
	for id, src := range n.Sources {
		if src == nil {
			panic(fmt.Sprintf("fabric: terminal %d missing", id))
		}
		src.SetGenerator(gen(id))
		src.Policy = policy
		src.OnAccepted, src.OnDropped = col.OnCreated, onDropped
		n.Sinks[id].OnPacket = col.OnEjected
	}
}

// rewind takes a network that has run back to the state its builder left:
// the engine rewinds itself and every registered component (sim.Engine.
// Reset), the sinks and the meter's one live count follow. Whatever the
// builder and the caller installed stays — wiring, wakers, taps, reference
// mode, Meter.PriceWireless prices. Observers keep per-run state nothing
// rewinds (sampler rows, spans, the recorder ring, the checker's ledgers),
// so an observed network runs once.
func (n *Network) rewind() {
	if n.Collector == nil {
		return // not run yet
	}
	if n.Probe != nil || n.FlightRec != nil || n.Checker != nil {
		panic(fmt.Sprintf("fabric %s: cannot run again: an observed network cannot be reset", n.Name))
	}
	n.Eng.Reset()
	for _, snk := range n.Sinks {
		snk.Reset()
	}
	if n.Meter != nil {
		n.Meter.NBufWrite = 0
	}
}

// Priced returns res with its power fields read from the meter over the
// cycles simulated so far: what Run and RunTrace end with, and what prices
// a finished run again after Meter.PriceWireless.
func (n *Network) Priced(res Result) Result {
	if n.Meter != nil {
		res.Power = n.Meter.Report(n.Eng.Cycle())
		res.AvgWirelessChannelMW = float64(n.Meter.WirelessAvgChannelMW(n.Eng.Cycle()))
	}
	return res
}

// RunTrace replays a workload trace (the paper's future-work "real
// workloads" path) instead of open-loop synthetic traffic: every core
// replays its slice of the trace, and the simulation runs until all
// packets are delivered or the cycle budget expires. The returned
// Summary's latency covers every packet; Drained reports completion.
func (n *Network) RunTrace(tr *traffic.Trace, pktFlits int, ts TrafficSpec, budget uint64) Result {
	if pktFlits <= 0 {
		pktFlits = 5
	}
	if err := tr.Validate(n.NumCores); err != nil {
		panic(fmt.Sprintf("fabric: invalid trace for %d-core network: %v", n.NumCores, err))
	}
	n.rewind()
	col := stats.NewCollector(n.NumCores, 0, budget)
	gens := tr.PerSource(n.NumCores, pktFlits, ts.Classify)
	n.attach(col, ts.Policy, func(id int) router.Generator {
		gens[id].MeasureFrom, gens[id].MeasureTo = 0, budget
		return gens[id]
	})
	done := func() bool {
		if col.Pending() > 0 {
			return false
		}
		for _, g := range gens {
			if !g.Done() {
				return false
			}
		}
		return true
	}
	drained := n.Eng.RunUntil(done, budget)
	n.Probe.Flush(n.Eng.Cycle())
	return n.Priced(Result{Summary: col.Summary(), Drained: drained})
}

// CheckInvariants audits every router, shared channel and source (see
// audit), then the hop bound, and returns the first breach; tests and the
// benchmark harness call it after Run.
func (n *Network) CheckInvariants() error {
	var first error
	n.audit(func(_, _ string, err error) {
		if first == nil {
			first = err
		}
	})
	if first != nil {
		return first
	}
	if n.Collector != nil && n.Diameter > 0 {
		if mh := n.Collector.Summary().MaxHops; mh > n.Diameter {
			return fmt.Errorf("fabric %s: packet exceeded diameter: %d hops > %d", n.Name, mh, n.Diameter)
		}
	}
	return nil
}

// audit is the one list of what a structural audit covers: it runs the
// CheckInvariants of every router, shared channel and source, in that
// order, and hands each breach to report with the rule it breaks (credit
// for a router, state for the others) and the component it names. Each of
// them also names a lost wakeup, a component asleep next to work it could
// do.
func (n *Network) audit(report func(rule, component string, err error)) {
	for _, r := range n.Routers {
		if err := r.CheckInvariants(); err != nil {
			report(check.RuleCredit, fmt.Sprintf("router %d", r.Cfg.ID), err)
		}
	}
	for _, ch := range n.Channels {
		if err := ch.CheckInvariants(); err != nil {
			report(check.RuleState, ChannelLabel(ch), err)
		}
	}
	for _, src := range n.Sources {
		if err := src.CheckInvariants(); err != nil {
			report(check.RuleState, fmt.Sprintf("source %d", src.CoreID), err)
		}
	}
}

// TrackChannel registers a shared channel with the network; the
// photonic and wireless builders call it.
func (n *Network) TrackChannel(ch *sbus.Channel) {
	n.Channels = append(n.Channels, ch)
}

// DOT renders the router-level topology as a Graphviz digraph: electrical
// links solid, photonic links blue, wireless links red dashed. Pipe to
// `dot -Tsvg` for a picture of the architecture.
func (n *Network) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", n.Name)
	for _, r := range n.Routers {
		fmt.Fprintf(&b, "  r%d [label=\"R%d (radix %d)\"];\n", r.Cfg.ID, r.Cfg.ID, r.Cfg.NumPorts)
	}
	for _, e := range n.Edges {
		attr := ""
		switch e.Kind {
		case Photonic:
			attr = " [color=blue]"
		case Wireless:
			attr = " [color=red, style=dashed]"
		}
		fmt.Fprintf(&b, "  r%d -> r%d%s;\n", e.From, e.To, attr)
	}
	b.WriteString("}\n")
	return b.String()
}

// BufferedFlits sums buffered flits across all routers (zero after a
// successful drain of a stopped workload).
func (n *Network) BufferedFlits() int {
	total := 0
	for _, r := range n.Routers {
		total += r.BufferedFlits()
	}
	return total
}
