package fabric_test

import (
	"fmt"
	"testing"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/router"
	"ownsim/internal/sim"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// observed is what one run shows of a network: the Result, the packets in
// ejection order, every router's counts (stall counts included: a probe
// switches them on) and the number of Delivery components.
type observed struct {
	res      fabric.Result
	log      *check.DeliveryLog
	counts   []router.Counts
	delivery int
}

func observe(n *fabric.Network, ts fabric.TrafficSpec, rs fabric.RunSpec) observed {
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: 256}))
	o := observed{log: n.RecordDeliveries(), delivery: n.Eng.Components(sim.PhaseDelivery)}
	o.res = n.Run(ts, rs)
	for _, r := range n.Routers {
		o.counts = append(o.counts, r.Counts())
	}
	return o
}

// diff reports the first way got differs from want, nil if none does.
func (got observed) diff(want observed) error {
	if got.res != want.res {
		return fmt.Errorf("Result\n got  %+v\n want %+v", got.res, want.res)
	}
	if err := check.CompareLogs(got.log, want.log); err != nil {
		return err
	}
	for i := range want.counts {
		if got.counts[i] != want.counts[i] {
			return fmt.Errorf("router %d counts %+v, want %+v", i, got.counts[i], want.counts[i])
		}
	}
	return nil
}

// The oracle of the delivery wheels: every system at both scales, at the
// quick budget near saturation, runs the same with its wires on shared
// wheels as with every wire its own Delivery component — Result to the
// bit, packets in the same order at the same cycles, every router's
// grant, allocation and stall counts. DiffRuns cannot see a wheel bug,
// because its reference twin runs the same wheels.
func TestWheelMatchesWiresAlone(t *testing.T) {
	for _, cores := range []int{256, 1024} {
		ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.9 * topology.UniformSaturationLoad(cores), Seed: 3}
		rs := fabric.RunSpec{Warmup: 800, Measure: 2500}
		for _, name := range core.SystemNames() {
			sys := core.NewSystem(name, cores, wireless.Config4, wireless.Ideal)
			ts.Policy, ts.Classify = sys.Policy, sys.Classify
			build := func() *fabric.Network { return sys.Build(power.NewMeter(nil)) }
			wheels := observe(build(), ts, rs)
			alone := observe(fabric.BuildWiresAlone(build), ts, rs)
			if wheels.delivery >= alone.delivery {
				t.Fatalf("%s-%d: %d Delivery components on wheels, %d alone: the wires share nothing", name, cores, wheels.delivery, alone.delivery)
			}
			if wheels.res.Packets == 0 {
				t.Fatalf("%s-%d: no packet measured", name, cores)
			}
			if err := wheels.diff(alone); err != nil {
				t.Errorf("%s-%d on wheels vs wires alone: %v", name, cores, err)
			}
		}
	}
}

// A Delivery component registered between two wires opens a second
// wheel, and the network still runs as with every wire alone.
func TestWheelOpensAfterAChannel(t *testing.T) {
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.12, PktFlits: 3, Seed: 21}
	rs := fabric.RunSpec{Warmup: 100, Measure: 1500}
	build := func() *fabric.Network { return crossbar16Split(8) }
	n := build()
	if got, want := n.Eng.Components(sim.PhaseDelivery), len(n.Channels)+2; got != want {
		t.Fatalf("%d Delivery components, want %d: %d channels between two wheels", got, want, len(n.Channels))
	}
	if err := observe(n, ts, rs).diff(observe(fabric.BuildWiresAlone(build), ts, rs)); err != nil {
		t.Fatalf("two wheels vs wires alone: %v", err)
	}
}

// A wheel network rewound from a run cut off with flits and credits in
// flight reruns what a fresh build runs, on the mesh and on p-Clos-1024,
// whose wheel carries 130-cycle links and 1-cycle terminal wires.
func TestWheelRewindMatchesFreshBuild(t *testing.T) {
	for _, c := range []struct {
		name  string
		cores int
	}{{"cmesh", 256}, {"pclos", 1024}} {
		sys := core.NewSystem(c.name, c.cores, wireless.Config4, wireless.Ideal)
		sat := topology.UniformSaturationLoad(c.cores)
		ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.5 * sat, Seed: 5, Policy: sys.Policy, Classify: sys.Classify}
		rs := fabric.RunSpec{Warmup: 400, Measure: 1200}
		fresh := sys.Build(power.NewMeter(nil))
		freshLog := fresh.RecordDeliveries()
		want := fresh.Run(ts, rs)

		reused := sys.Build(power.NewMeter(nil))
		cut := ts
		cut.Rate, cut.Seed = 1.5*sat, 6
		reused.Run(cut, fabric.RunSpec{Warmup: 100, Measure: 400, DrainBudget: 1})
		if reused.BufferedFlits() == 0 {
			t.Fatalf("%s-%d: the cut-off run left nothing behind", c.name, c.cores)
		}
		log := reused.RecordDeliveries()
		if got := reused.Run(ts, rs); got != want {
			t.Errorf("%s-%d rewound:\n got  %+v\n want %+v", c.name, c.cores, got, want)
		}
		if err := check.CompareLogs(log, freshLog); err != nil {
			t.Errorf("%s-%d rewound: %v", c.name, c.cores, err)
		}
	}
}
