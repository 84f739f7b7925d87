package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// At kilo-core low load nearly every source is idle on nearly every
// cycle, and an idle Bernoulli source sleeps until its next packet. The
// goldens cannot see a source that silently went back to polling (the
// results are bit-identical either way), so the schedule itself is
// pinned: mean compute-phase occupancy was 1027 with always-on sources.
func TestIdleSourcesSleepAtKiloCoreLowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core run in -short mode")
	}
	sys := NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 77, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	if !res.Drained || res.Packets == 0 {
		t.Fatalf("run did not carry traffic: %+v", res.Summary)
	}
	st := n.Eng.PhaseStats(sim.PhaseCompute)
	if mean := float64(st.AwakeCycleSum) / float64(n.Eng.Cycle()); mean >= 32 {
		t.Fatalf("mean awake compute components %.1f, want < 32: sources are polling again", mean)
	}
	if st.WakesTimer < res.Packets {
		t.Fatalf("%d timer wakes for %d measured packets: sources are not waking on their look-ahead", st.WakesTimer, res.Packets)
	}
}

// The reference twin polls every generator once per cycle (it never
// calls NextPending); the optimised side looks ahead. At a load where
// sources are idle almost always, the two must still agree delivery for
// delivery. The packets are single-flit (head and tail in one flit), so
// that case also passes the reference and reused twins.
func TestConformanceLookAheadMatchesPolling(t *testing.T) {
	sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	for _, seed := range []uint64{3, 2018} {
		err := fabric.DiffRuns(func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, PktFlits: 1, Seed: seed, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 300, Measure: 2500})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// The kilo-core low-load network the benchmark claims on: 1024 sources
// sleep from one arrival to the next. The reference twin polls every
// generator on every cycle; the reused twin runs on a rewound network.
func TestConformanceKiloCoreLowLoadMatchesPolling(t *testing.T) {
	if testing.Short() {
		t.Skip("kilo-core run in -short mode")
	}
	sys := NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
	err := fabric.DiffRuns(func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.001, Seed: 29, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 300, Measure: 2500})
	if err != nil {
		t.Fatal(err)
	}
}

// A router whose every buffered flit is blocked sleeps until the credit
// or the busyUntil that unblocks it; the reference twin ticks it every
// cycle. Near and past saturation, where most router ticks would be such
// no-ops, the two must agree delivery for delivery on every system.
func TestConformanceStalledRoutersMatchPerCycle(t *testing.T) {
	scales := []int{256}
	if os.Getenv("CHECK_CAMPAIGN") != "" {
		scales = append(scales, 1024)
	}
	for _, cores := range scales {
		loads := SweepLoads(cores, 8)
		for _, name := range SystemNames() {
			sys := NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			for _, load := range []float64{loads[5], loads[7]} { // ~0.9x and 1.2x of saturation
				err := fabric.DiffRuns(func() *fabric.Network { return sys.Build(power.NewMeter(nil)) },
					fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: load, Seed: 18, Policy: sys.Policy, Classify: sys.Classify},
					fabric.RunSpec{Warmup: 300, Measure: 2500})
				if err != nil {
					t.Errorf("%s-%d at %.4f: %v", name, cores, load, err)
				}
			}
		}
	}
}

// The stall counts a probe reads are per cycle by definition and charged
// by interval by the components that sleep through their stalls. Whatever
// the sampler reads, whenever it reads it — per router, per channel, at a
// stride that lands mid-stall — must be what the reference twin, which
// ticks everything on every cycle, counted by then. Only the scheduler's
// own columns may differ, and the pool's (the twin does not pool).
func TestConformanceObservedCountsMatchPerCycle(t *testing.T) {
	names, scales := []string{"own", "cmesh"}, []int{256}
	if os.Getenv("CHECK_CAMPAIGN") != "" {
		names, scales = append(names, "wcmesh"), append(scales, 1024)
	}
	for _, cores := range scales {
		loads := SweepLoads(cores, 8)
		for _, name := range names {
			sys := NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			for _, load := range []float64{loads[5], loads[7]} { // ~0.9x and 1.2x of saturation
				sample := func(reference bool) *probe.Sampler {
					n := sys.Build(power.NewMeter(nil))
					if reference {
						n.SetReferenceMode()
					}
					p := probe.New(probe.Options{MetricsEvery: 97})
					n.InstallProbe(p)
					perComponentGauges(n, p.Registry())
					n.Run(fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: load, Seed: 19, Policy: sys.Policy, Classify: sys.Classify},
						fabric.RunSpec{Warmup: 300, Measure: 2500})
					return p.Sampler()
				}
				got, ref := sample(false), sample(true)
				if got.Rows() != ref.Rows() || got.Rows() < 25 {
					t.Fatalf("%s-%d at %.4f: %d sampler rows, reference twin %d", name, cores, load, got.Rows(), ref.Rows())
				}
				stalled := false
				for i := 0; i < got.Rows(); i++ {
					cycle, have := got.Row(i)
					_, want := ref.Row(i)
					for c, col := range got.Names() {
						if strings.HasPrefix(col, "engine.") || strings.HasPrefix(col, "pool.") {
							continue
						}
						if have[c] != want[c] {
							t.Fatalf("%s-%d at %.4f: cycle %d: %s = %v, reference twin %v", name, cores, load, cycle, col, have[c], want[c])
						}
						stalled = stalled || strings.HasSuffix(col, "credit_stall") && have[c] > 0
					}
				}
				if !stalled {
					t.Errorf("%s-%d at %.4f: no router ever stalled on credits: the run compares nothing", name, cores, load)
				}
			}
		}
	}
}

// perComponentGauges registers, behind a probe's network-wide columns,
// each router's pipeline counts and buffered flits and each source's
// queue, so a sampler reads every component on its own.
func perComponentGauges(n *fabric.Network, reg *probe.Registry) {
	for _, r := range n.Routers {
		base := fmt.Sprintf("router.%d.", r.Cfg.ID)
		reg.CounterFunc(base+"sa_grants", func() uint64 { return r.Counts().SAGrants })
		reg.CounterFunc(base+"credit_stall", func() uint64 { return r.Counts().CreditStall })
		reg.CounterFunc(base+"busy_stall", func() uint64 { return r.Counts().BusyStall })
		reg.Gauge(base+"buffered", func() float64 { return float64(r.BufferedFlits()) })
	}
	for id, s := range n.Sources {
		reg.Gauge(fmt.Sprintf("src.%d.queued", id), func() float64 { return float64(s.QueueLen()) })
	}
}

// Observing a run does not change its schedule: no observer keeps a
// component awake, so a fully observed run ticks exactly the components
// the bare run ticks.
func TestObservedScheduleEqualsBare(t *testing.T) {
	run := func(observed bool) *sim.Engine {
		sys := NewSystem("own", 256, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		if observed {
			n.InstallFlightRecorder(flightrec.New(flightrec.Options{}))
			n.InstallProbe(probe.New(probe.Options{MetricsEvery: 1000, Spans: true, TraceEvery: 64}))
		}
		n.Run(fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.007, Seed: 1, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 500, Measure: 5000})
		return n.Eng
	}
	bare, observed := run(false), run(true)
	for _, ph := range []sim.Phase{sim.PhaseDelivery, sim.PhaseCompute} {
		if got, want := observed.PhaseStats(ph).Ticks, bare.PhaseStats(ph).Ticks; got != want {
			t.Errorf("%s phase: %d ticks observed, %d bare", ph, got, want)
		}
	}
}

// The goldens cannot see a router that silently went back to re-walking
// its blocked VCs every cycle, nor a credit-less source or channel that
// went back to polling, so the schedule is pinned: compute-phase ticks
// (routers and sources) per switch traversal at saturation. With blocked
// routers spinning the ratios were 6.4 (CMESH) and 5.5 (OWN), 3.0 and 2.4
// with them asleep, and 2.3 and 1.9 with blocked sources asleep too —
// observed or not.
func TestStalledRoutersSleepAtSaturation(t *testing.T) {
	for _, c := range []struct {
		name     string
		load     float64
		observed bool
		bound    float64
	}{{"cmesh", 0.006, false, 3.0}, {"own", 0.007, false, 2.5}, {"own", 0.007, true, 2.5}} {
		sys := NewSystem(c.name, 256, wireless.Config4, wireless.Ideal)
		m := power.NewMeter(nil)
		n := sys.Build(m)
		if c.observed {
			p := probe.New(probe.Options{MetricsEvery: 1000})
			n.InstallProbe(p)
			perComponentGauges(n, p.Registry())
		}
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: c.load, Seed: 1, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 500, Measure: 5000},
		)
		if res.Packets == 0 {
			t.Fatalf("%s: run carried no traffic: %+v", c.name, res.Summary)
		}
		ticks := n.Eng.PhaseStats(sim.PhaseCompute).Ticks
		hops := m.NXbar
		if ratio := float64(ticks) / float64(hops); ratio >= c.bound {
			t.Errorf("%s-256 at %.3f (observed %v): %.2f compute ticks per switch traversal (%d / %d), want < %.1f: blocked routers or sources are spinning again",
				c.name, c.load, c.observed, ratio, ticks, hops, c.bound)
		} else {
			t.Logf("%s-256 at %.3f (observed %v): %.2f compute ticks per switch traversal", c.name, c.load, c.observed, ratio)
		}
	}
}
