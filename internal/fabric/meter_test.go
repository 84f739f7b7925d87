package fabric_test

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
)

// The power meter's contract with bench/ (its own module, so `go test
// ./...` never compiles it): bench/ladder.go's router rung steps the
// engine until Meter.NBufWrite reaches a target, so that count must
// advance while the engine steps, with no pricing read in between;
// bench/workloads.go reads the other five N* fields after Run, so the
// pricing read Run ends with must have filled them from the components'
// own counts.

// router8 is bench/ladder.go's buildRouter8 with attachUniform applied:
// one 8-port router, a terminal on every port, uniform Bernoulli sources
// attached by hand so the engine can be stepped without Run.
func router8() *fabric.Network {
	const ports = 8
	n := fabric.New("router8", ports, power.NewMeter(nil))
	r := n.AddRouter(router.Config{
		ID: 0, NumPorts: ports, NumVCs: 4, BufDepth: 4,
		Route: func(p *noc.Packet, _ int) (int, uint32) { return p.Dst, 0xf },
	})
	for c := 0; c < ports; c++ {
		n.AddTerminal(c, r, c, c)
	}
	for id, src := range n.Sources {
		src.SetGenerator(traffic.NewBernoulli(id, n.NumCores, traffic.Uniform, 0.4, 5, 1, nil))
	}
	return n
}

func TestBufWriteCountIsLiveWhileStepping(t *testing.T) {
	n := router8()
	const target = 1000
	steps := 0
	for n.Meter.NBufWrite < target {
		if steps++; steps > 100*target {
			t.Fatalf("NBufWrite stuck at %d after %d steps: the ladder's router rung would spin forever", n.Meter.NBufWrite, steps)
		}
		n.Eng.Step()
	}
	if n.Meter.NXbar != 0 || n.Meter.NBufRead != 0 {
		t.Fatalf("read-out counts moved (%d, %d) with no pricing read", n.Meter.NXbar, n.Meter.NBufRead)
	}
	n.Meter.Energy()
	grants := n.Routers[0].Counts().SAGrants
	if grants == 0 || n.Meter.NXbar != grants || n.Meter.NBufRead != grants {
		t.Fatalf("after a pricing read NXbar=%d NBufRead=%d, the router granted %d", n.Meter.NXbar, n.Meter.NBufRead, grants)
	}
	if buffered := uint64(n.BufferedFlits()); n.Meter.NBufWrite != grants+buffered {
		t.Fatalf("%d buffer writes != %d grants + %d flits still buffered", n.Meter.NBufWrite, grants, buffered)
	}
}

// elecRing is a 4-router ring over 2.5 mm electrical links; it returns
// the link wires so the test can read their counts.
func elecRing() (*fabric.Network, []*noc.Wire) {
	const nr = 4
	n := fabric.New("ring", nr, power.NewMeter(nil))
	routers := make([]*router.Router, nr)
	for i := range routers {
		id := i
		routers[i] = n.AddRouter(router.Config{
			ID: id, NumPorts: 3, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == id {
					return 1, 3
				}
				return 2, 3
			},
		})
	}
	var wires []*noc.Wire
	for i := range routers {
		wires = append(wires, n.Connect(routers[i], 2, routers[(i+1)%nr], 2, fabric.LinkSpec{Delay: 2, LengthMM: 2.5}))
	}
	for i := range routers {
		n.AddTerminal(i, routers[i], 0, 1)
	}
	return n, wires
}

func TestReadOutCountsEqualComponentCountsAfterRun(t *testing.T) {
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.1, PktFlits: 3, Seed: 5}
	rs := fabric.RunSpec{Warmup: 100, Measure: 1000}

	n, wires := elecRing()
	if res := n.Run(ts, rs); !res.Drained || res.Power.ElecLinkMW <= 0 {
		t.Fatalf("ring run: %+v %+v", res, res.Power)
	}
	// Drained means every measured packet ejected; unmeasured ones may
	// still be in flight, buffered but not yet read. Silence the sources,
	// step until nothing is scheduled, and price again.
	for _, src := range n.Sources {
		src.SetGenerator(nil)
	}
	for budget := 10_000; !n.Eng.Quiescent(); budget-- {
		if budget == 0 {
			t.Fatal("the ring did not go quiescent after its sources stopped")
		}
		n.Eng.Step()
	}
	n.Priced(fabric.Result{})
	var delivered, grants uint64
	for _, w := range wires {
		delivered += w.Delivered
	}
	for _, r := range n.Routers {
		grants += r.Counts().SAGrants
	}
	m := n.Meter
	if delivered == 0 || m.NElecFlit != delivered || m.NPhotFlit != 0 || m.NWirelessFlt != 0 {
		t.Fatalf("NElecFlit=%d NPhotFlit=%d NWirelessFlt=%d, the wires delivered %d", m.NElecFlit, m.NPhotFlit, m.NWirelessFlt, delivered)
	}
	if m.NXbar != grants || m.NBufRead != grants || m.NBufWrite != grants {
		t.Fatalf("NBufWrite=%d NBufRead=%d NXbar=%d on an empty ring that granted %d", m.NBufWrite, m.NBufRead, m.NXbar, grants)
	}

	x := crossbar16()
	if res := x.Run(ts, rs); !res.Drained || res.Power.PhotonicMW <= 0 {
		t.Fatalf("crossbar run: %+v %+v", res, res.Power)
	}
	var transmitted uint64
	for _, ch := range x.Channels {
		transmitted += ch.Transmitted
	}
	if transmitted == 0 || x.Meter.NPhotFlit != transmitted || x.Meter.NElecFlit != 0 {
		t.Fatalf("NPhotFlit=%d NElecFlit=%d, the buses transmitted %d", x.Meter.NPhotFlit, x.Meter.NElecFlit, transmitted)
	}
}

// pricer asks the meter for a full report every period cycles from inside
// the run.
type pricer struct {
	m      *power.Meter
	period uint64
	asked  int
}

func (p *pricer) Tick(cycle uint64) {
	if cycle%p.period == p.period-1 {
		p.m.Report(cycle + 1)
		p.m.EnergyRows(cycle + 1)
		p.asked++
	}
}

// TestReportMidRunChangesNothing: pricing reads counts (settling a stalled
// router's lazily kept ones first, as a probe sample does) and writes
// nothing a simulated outcome or a later report depends on.
func TestReportMidRunChangesNothing(t *testing.T) {
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.3, Seed: 9}
	rs := fabric.RunSpec{Warmup: 200, Measure: 2000}
	plain, asked := crossbar16(), crossbar16()
	p := &pricer{m: asked.Meter, period: 37}
	asked.Eng.Register(sim.PhaseCollect, p)
	want, got := plain.Run(ts, rs), asked.Run(ts, rs)
	if p.asked < 50 {
		t.Fatalf("only %d mid-run reports; fixture exercises nothing", p.asked)
	}
	if got != want {
		t.Fatalf("mid-run reports changed the result:\n got %+v %+v\nwant %+v %+v", got, got.Power, want, want.Power)
	}
	if a, b := asked.Meter.Report(got.Power.Cycles), asked.Meter.Report(got.Power.Cycles); a != b || a != got.Power {
		t.Fatalf("consecutive reports differ:\n%+v\n%+v\n%+v", a, b, got.Power)
	}
}
