package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/report"
	"ownsim/internal/router"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// sample is one call of a workload: its host cost, the fingerprint of
// what it simulated, the checks it ran and, for the traced pass, the
// program's own counters read afterwards.
type sample struct {
	cost
	FP     string
	Ops    int
	Failed int
	Notes  []string
	Counts map[string]float64
}

// check records one correctness check; a failed one carries its message
// into the run's output.
func (s *sample) check(ok bool, format string, args ...any) {
	s.Ops++
	if !ok {
		s.Failed++
		s.Notes = append(s.Notes, fmt.Sprintf(format, args...))
	}
}

// workload is one named load of the benchmark.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why string
	// Builds constructs, once each, the distinct networks the workload
	// simulates; setup_s times them.
	Builds []func() *fabric.Network
	// Call performs one call: untimed preparation, the timed region,
	// then the checks. tr is nil on the untraced pass.
	Call func(seed uint64, tr *tracer) sample
	// Twin, when set, is the same simulation with every observer left
	// out; its fingerprint must equal Call's, and the traced pass times
	// it for observer.overhead_ratio.
	Twin func(seed uint64, tr *tracer) sample
	// Ungated marks a workload that BENCHMARK.json leaves out: the full
	// run and -compare report it like the others, but the driver neither
	// runs it nor holds it against a bound, because no run the driver's
	// time limit allows measures it within any bound the contract allows
	// (README.md, Workloads).
	Ungated bool
}

// fingerprint is the repository's FNV-1a digest of a value's %+v
// rendering: equal fingerprints mean bit-identical simulated statistics.
func fingerprint(v any) string {
	return probe.DigestHex(fmt.Appendf(nil, "%+v", v))
}

// netSpec is a single-network workload: build one network, offer uniform
// traffic at a fixed rate below saturation, time Network.Run.
type netSpec struct {
	build    func() *fabric.Network
	policy   router.VCPolicy
	classify traffic.Classifier
	rate     float64
	run      fabric.RunSpec
	// observed installs the flight recorder, the probe and the checker
	// before Run, so every hook family is live instead of nil.
	observed bool
	// noSbus asserts that no flit crossed a shared medium.
	noSbus bool
}

func systemSpec(name string, cores int, rate float64) netSpec {
	sys := core.NewSystem(name, cores, wireless.Config4, wireless.Ideal)
	return netSpec{
		build:    func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
		policy:   sys.Policy,
		classify: sys.Classify,
		rate:     rate,
		run:      fabric.RunSpec{Warmup: 1000, Measure: 60000, ReservoirCap: 4096},
	}
}

// observers are the three optional hook families of a network.
type observers struct {
	fr *flightrec.FlightRecorder
	pb *probe.Probe
	ck *check.Checker
}

func (ns netSpec) call(seed uint64, tr *tracer) sample {
	runtime.GC()
	root := tr.begin("call", 0)
	sp := tr.begin("harness.build", root)
	n := ns.build()
	tr.end(sp)

	var obs observers
	sp = tr.begin("harness.install", root)
	if ns.observed {
		obs = observers{
			fr: flightrec.New(flightrec.Options{}),
			pb: probe.New(probe.Options{MetricsEvery: 1000, Spans: true, TraceEvery: 64}),
			ck: check.New(),
		}
		// The recorder goes in before the probe (InstallProbe hooks the
		// stall tracker and panics on the other order).
		n.InstallFlightRecorder(obs.fr)
		n.InstallProbe(obs.pb)
		n.InstallChecker(obs.ck, nil)
	}
	tr.end(sp)

	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: ns.rate, Seed: seed, Policy: ns.policy, Classify: ns.classify}
	var res fabric.Result
	tr.startProfile()
	sp = tr.begin("fabric.run", root)
	s := sample{cost: timed(func() { res = n.Run(ts, ns.run) })}
	tr.end(sp)
	tr.stopProfile()

	sp = tr.begin("fabric.checkinv", root)
	invErr := n.CheckInvariants()
	tr.end(sp)

	sp = tr.begin("harness.readout", root)
	s.FP = fingerprint(res)
	s.Counts = readCounters(n, res, obs)
	s.check(res.Drained, "run did not drain: offered load is beyond saturation")
	s.check(res.Packets > 0, "no packet was measured")
	// Below saturation accepted = offered.
	tol := loadTolerance(ns.rate, n.NumCores, ns.run.Measure)
	s.check(math.Abs(res.Throughput-ns.rate) <= tol*ns.rate,
		"throughput %.6f is not within %.1f %% of the offered %.6f f/n/c", res.Throughput, 100*tol, ns.rate)
	s.check(invErr == nil, "CheckInvariants: %v", invErr)
	if ns.noSbus {
		s.check(s.Counts["sbus.flits"] <= 0, "sbus.flits = %v on an all-electrical network", s.Counts["sbus.flits"])
	}
	if ns.observed {
		s.check(obs.ck.Total() == 0, "checker recorded %d violations, first: %v", obs.ck.Total(), obs.ck.Err())
	}
	tr.end(sp)
	tr.end(root)
	return s
}

// loadTolerance is how far, as a share of the offered load, the accepted
// throughput of an unsaturated run may sit from it: 5 %, or six sigma of
// the Bernoulli sampling noise where the window holds too few packets for
// that (6.4 k packets on own1024-low give 7.7 %; a few hundred on the low
// points of the sweep give 25-40 %). Six sigma because every call of
// every run draws another seed and none of them may fail by chance.
func loadTolerance(rate float64, cores int, measureCy uint64) float64 {
	packets := rate * float64(cores) * float64(measureCy) / 5
	return math.Max(0.05, 6/math.Sqrt(packets))
}

// readCounters reads the counters the program already keeps, through its
// public accessors, after a run. All of them are exact and repeat
// bit-for-bit for a fixed seed.
func readCounters(n *fabric.Network, res fabric.Result, obs observers) map[string]float64 {
	c := map[string]float64{}
	ei := n.EngineIntro()
	executed := float64(ei.Cycles - ei.FastForwardedCy)
	c["sim.cycles"] = float64(ei.Cycles)
	c["sim.fastforward_cy"] = float64(ei.FastForwardedCy)
	var ticks float64
	for _, ph := range ei.Phases {
		ticks += float64(ph.Ticks)
		c["sim.ticks_"+ph.Phase] = float64(ph.Ticks)
		c["sim.wakes_event"] += float64(ph.WakesEvent)
		c["sim.wakes_timer"] += float64(ph.WakesTimer)
		c["sim.wakes_spurious"] += float64(ph.WakesSpurious)
		c["sim.timer_heap_max"] = math.Max(c["sim.timer_heap_max"], float64(ph.TimerHeapMax))
		if executed > 0 {
			c["sim.awake_mean_"+ph.Phase] = float64(ph.AwakeCycleSum) / executed
		}
	}

	for _, src := range n.Sources {
		c["traffic.packets_created"] += float64(src.Generated)
	}
	pi := n.PoolIntro()
	c["noc.pool_gets"] = float64(pi.Gets)
	c["noc.pool_fresh"] = float64(pi.Fresh)
	c["noc.pool_highwater"] = float64(pi.HighWater)
	if pi.Gets > 0 {
		c["noc.pool_reuse_ratio"] = float64(pi.Gets-pi.Fresh) / float64(pi.Gets)
	}

	m := n.Meter
	hops := float64(m.NBufWrite)
	c["router.flit_hops"] = hops
	c["router.xbar_traversals"] = float64(m.NXbar)
	for _, r := range n.Routers {
		c["router.buffered_highwater"] = math.Max(c["router.buffered_highwater"], float64(r.BufferedHighWater()))
	}
	if hops > 0 {
		c["sim.ticks_per_flit_hop"] = ticks / hops
	}

	for _, ch := range n.Channels {
		st := ch.Stats()
		c["sbus.flits"] += float64(st.Transmitted)
		c["sbus.busy_cy"] += float64(st.BusyCy)
		c["sbus.token_moves"] += float64(st.TokenMoves)
		c["sbus.credit_stall_cy"] += float64(st.CreditStallCy)
		c["sbus.util_max"] = math.Max(c["sbus.util_max"], st.Utilization(ei.Cycles))
	}
	if c["sbus.flits"] > 0 {
		c["sbus.token_moves_per_flit"] = c["sbus.token_moves"] / c["sbus.flits"]
	}

	c["power.elec_flits"] = float64(m.NElecFlit)
	c["power.phot_flits"] = float64(m.NPhotFlit)
	c["power.wireless_flits"] = float64(m.NWirelessFlt)

	c["stats.packets_measured"] = float64(res.Packets)
	c["stats.avg_latency_cy"] = res.AvgLatency
	c["stats.throughput"] = res.Throughput

	if obs.pb != nil {
		c["probe.samples"] = float64(obs.pb.Sampler().Rows())
		c["probe.span_packets"] = float64(obs.pb.Spans().Packets())
		c["probe.trace_events"] = float64(obs.pb.Tracer().Len())
		c["flightrec.frames"] = float64(obs.fr.Rec.Total())
		c["check.violations"] = float64(obs.ck.Total())
	}
	return c
}

func netWorkload(name, why, system string, cores int, rate float64, mod func(*netSpec)) workload {
	ns := systemSpec(system, cores, rate)
	if mod != nil {
		mod(&ns)
	}
	w := workload{
		Name:   name,
		Why:    why,
		Builds: []func() *fabric.Network{ns.build},
		Call:   ns.call,
	}
	if ns.observed {
		twin := ns
		twin.observed = false
		w.Twin = twin.call
	}
	return w
}

// sweepPoints is the length of the sweep1024-curve load axis, 10 % to
// 120 % of saturation.
const sweepPoints = 8

func sweepCall(seed uint64, tr *tracer) sample {
	runtime.GC()
	sys := core.NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
	loads := core.SweepLoads(1024, sweepPoints)
	budget := core.Budget{Warmup: 1500, Measure: 6000, Loads: sweepPoints, Seed: seed}
	var pts []stats.CurvePoint
	root := tr.begin("call", 0)
	tr.startProfile()
	sp := tr.begin("core.sweep", root)
	s := sample{cost: timed(func() { pts = core.Sweep(sys, traffic.Uniform, loads, budget) })}
	tr.end(sp)
	tr.stopProfile()

	sp = tr.begin("harness.readout", root)
	checkCurve(&s, pts, loads, budget.Measure)
	tr.end(sp)
	tr.end(root)
	return s
}

// checkCurve checks an OWN-1024 latency curve over the 10 %..120 % load
// axis and fills the sample's fingerprint and counters from it.
func checkCurve(s *sample, pts []stats.CurvePoint, loads []float64, measureCy uint64) {
	s.FP = fingerprint(pts)
	s.check(len(pts) == len(loads), "curve has %d points, want %d", len(pts), len(loads))
	if len(pts) != len(loads) {
		return
	}
	// Points at or below 75 % of saturation must be unsaturated and
	// accept what is offered.
	sat := loads[len(loads)-1] / 1.2
	saturated := 0
	for i, p := range pts {
		s.check(stats.ApproxEqual(p.Load, loads[i], 1e-12), "point %d is at load %v, want %v (load order)", i, p.Load, loads[i])
		if p.Saturated {
			saturated++
		}
		if p.Load <= 0.75*sat {
			tol := loadTolerance(p.Load, 1024, measureCy)
			s.check(!p.Saturated && math.Abs(p.Throughput-p.Load) <= tol*p.Load,
				"point %d at %.0f %% of saturation: saturated=%v, throughput %.6f is not within %.0f %% of load %.6f",
				i, 100*p.Load/sat, p.Saturated, p.Throughput, 100*tol, p.Load)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	s.check(last.Latency > 5*first.Latency, "last-point latency %.1f is not above 5x the first point's %.1f", last.Latency, first.Latency)
	s.Counts = map[string]float64{
		"core.points":           float64(len(pts)),
		"core.points_saturated": float64(saturated),
		"stats.avg_latency_cy":  first.Latency,
		"stats.throughput":      first.Throughput,
	}
}

func claimsCall(_ uint64, tr *tracer) sample {
	runtime.GC()
	var rep report.Report
	root := tr.begin("call", 0)
	tr.startProfile()
	sp := tr.begin("report.evaluate", root)
	// The claim thresholds are pinned at the quick budget, seed
	// included, so this workload ignores -seed. The timestamp only
	// labels the ledger; a fixed one keeps the fingerprint stable.
	s := sample{cost: timed(func() { rep = report.Evaluate(core.QuickBudget(), time.Unix(0, 0).UTC()) })}
	tr.end(sp)
	tr.stopProfile()

	sp = tr.begin("harness.readout", root)
	checkClaims(&s, rep)
	tr.end(sp)
	tr.end(root)
	return s
}

// checkClaims scores one op per claim of the ledger; a claim that does
// not reproduce is a failed op.
func checkClaims(s *sample, rep report.Report) {
	s.FP = fingerprint(rep.Claims)
	s.check(len(rep.Claims) > 0, "the ledger is empty")
	for _, c := range rep.Claims {
		s.check(c.Pass, "claim %s not reproduced: paper %q, measured %q", c.ID, c.Paper, c.Measured)
	}
	s.Counts = map[string]float64{"report.claims_passed": float64(rep.Passed())}
}

// claimsBuilds lists every (system, scale) report.Evaluate simulates.
func claimsBuilds() []func() *fabric.Network {
	var bs []func() *fabric.Network
	for _, cores := range []int{256, 1024} {
		for _, name := range core.SystemNames() {
			sys := core.NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			bs = append(bs, func() *fabric.Network { return sys.Build(power.NewMeter(nil)) })
		}
	}
	return bs
}

// workloads is the benchmark, in the order it is reported. Rates are
// fractions of topology.UniformSaturationLoad: 1/512 f/n/c at 1024
// cores, 1/128 at 256.
func workloads() []workload {
	return []workload{
		netWorkload("own1024-low",
			"OWN-1024 at 25% of saturation: 1024 always-on sources draw every cycle and inject almost never, so sim scheduler, traffic.Bernoulli and sim.RNG dominate",
			"own", 1024, 0.0005, nil),
		netWorkload("own256-sat",
			"OWN-256 at 90% of saturation: ~21k packets keep router pipeline, sbus token arbitration and noc.Wire busy; source polling is a small share",
			"own", 256, 0.007, nil),
		netWorkload("own256-sat-observed",
			"own256-sat with flight recorder, probe and checker installed: same layers with every hook family live, so disabled-path vs enabled-path trades show",
			"own", 256, 0.007, func(ns *netSpec) { ns.observed = true }),
		netWorkload("cmesh256-sat",
			"CMESH-256 at 77% of saturation: all-electrical multi-hop, router and noc.Wire only; bypasses sbus/photonic/wireless (sbus.flits must read 0)",
			"cmesh", 256, 0.006, func(ns *netSpec) { ns.noSbus = true }),
		{
			Name:    "sweep1024-curve",
			Why:     "what cmd/sweep users wait for: 8 OWN-1024 builds and runs from 10% to 120% of saturation over ParallelMap workers; slowest point sets wall time",
			Builds:  []func() *fabric.Network{systemSpec("own", 1024, 0).build},
			Call:    sweepCall,
			Ungated: true,
		},
		{
			Name:   "claims-quick",
			Why:    "what experiments -quick does: five topologies at both scales in hundreds of short runs, so network construction and GC are a large share; checks 20/20 claims",
			Builds: claimsBuilds(),
			Call:   claimsCall,
		},
	}
}
