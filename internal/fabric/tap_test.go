package fabric_test

import (
	"testing"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/router"
	"ownsim/internal/traffic"
)

// crossbar16 assembles one 16-tile MWSR photonic crossbar, one core per
// tile: the smallest network whose traffic crosses sources, routers,
// token-arbitrated shared channels and sinks, so every tap emits.
func crossbar16() *fabric.Network { return crossbar16Split(0) }

// crossbar16Split is crossbar16 with the terminals of the first early
// tiles attached before the crossbar's channels are registered and the
// rest after.
func crossbar16Split(early int) *fabric.Network {
	const tiles = 16
	wp := func(w, t int) int {
		if t < w {
			return 1 + t
		}
		return t
	}
	n := fabric.New("xbar16", tiles, power.NewMeter(nil))
	n.Diameter = 2
	routers := make([]*router.Router, tiles)
	for i := range routers {
		tile := i
		routers[i] = n.AddRouter(router.Config{
			ID: tile, NumPorts: 17, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == tile {
					return 0, 3
				}
				return wp(tile, p.Dst), 3
			},
		})
	}
	for c := 0; c < early; c++ {
		n.AddTerminal(c, routers[c], 0, 0)
	}
	photonic.BuildCrossbar(n, "xbar16", routers, photonic.PortMap{
		WriterPort: wp,
		ReaderPort: func(int) int { return 16 },
	}, photonic.CrossbarSpec{
		Tiles: tiles, SerializeCy: 1, PropCy: 2, TokenHopCy: 1, NumVCs: 2, BufDepth: 4,
	})
	for c := early; c < tiles; c++ {
		n.AddTerminal(c, routers[c], 0, 0)
	}
	return n
}

// TestAllObserversComposeAndStayInert installs the flight recorder, the
// probe (sampler, tracer and spans), the conformance checker and a
// delivery log on one network — every observer is a subscriber of the
// same taps, so none excludes another — and requires the Result and the
// per-packet delivery log to match a run with nothing but the log, with
// the checker subscribed before and after the probe.
func TestAllObserversComposeAndStayInert(t *testing.T) {
	ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.12, PktFlits: 3, Seed: 21}
	rs := fabric.RunSpec{Warmup: 100, Measure: 1500}

	bare := crossbar16()
	bareLog := bare.RecordDeliveries()
	bareRes := bare.Run(ts, rs)
	if !bareRes.Drained || len(bareLog.Events) == 0 {
		t.Fatalf("fixture run exercises nothing: drained=%v deliveries=%d", bareRes.Drained, len(bareLog.Events))
	}

	for _, checkerFirst := range []bool{true, false} {
		n := crossbar16()
		fr := flightrec.New(flightrec.Options{})
		pb := probe.New(probe.Options{MetricsEvery: 64, TraceEvery: 1, Spans: true})
		ck := check.New()
		n.InstallFlightRecorder(fr)
		if checkerFirst {
			n.InstallChecker(ck, nil)
		}
		n.InstallProbe(pb)
		if !checkerFirst {
			n.InstallChecker(ck, nil)
		}
		log := n.RecordDeliveries()
		res := n.Run(ts, rs)

		if res != bareRes {
			t.Errorf("checkerFirst=%v: observers changed the Result:\n  bare:     %+v\n  observed: %+v", checkerFirst, bareRes, res)
		}
		if err := check.CompareLogs(log, bareLog); err != nil {
			t.Errorf("checkerFirst=%v: observers changed the delivery log: %v", checkerFirst, err)
		}
		if ck.Total() != 0 {
			t.Errorf("checkerFirst=%v: conformant run reported violations: %v", checkerFirst, ck.Err())
		}
		// Every observer actually saw the run.
		if ck.Events() == 0 || pb.Tracer().Len() == 0 || pb.Sampler().Rows() == 0 || fr.Rec.Total() == 0 {
			t.Errorf("checkerFirst=%v: an observer saw nothing: checker events %d, trace events %d, samples %d, frames %d",
				checkerFirst, ck.Events(), pb.Tracer().Len(), pb.Sampler().Rows(), fr.Rec.Total())
		}
		sp := pb.Spans()
		if sp.Packets() != res.Packets || sp.Mismatches() != 0 {
			t.Errorf("checkerFirst=%v: spans attributed %d packets (%d mismatches), collector measured %d",
				checkerFirst, sp.Packets(), sp.Mismatches(), res.Packets)
		}
		var booked uint64
		for ci := range n.Channels {
			booked += sp.TokenRow(ci).WaitCy
		}
		if want := sp.PhaseCycles(probe.SpanTokenWait); booked != want || want == 0 {
			t.Errorf("checkerFirst=%v: token ledger %d cy, span token_wait %d cy (want equal, nonzero)", checkerFirst, booked, want)
		}
	}
}

// TestTapsWantOnlyWhatIsRead pins the disabled-site bargain per kind: a
// component builds an event only if some installed observer reads it.
func TestTapsWantOnlyWhatIsRead(t *testing.T) {
	wants := func(opts probe.Options) (r, ch, src *noc.Tap) {
		n := crossbar16()
		n.InstallProbe(probe.New(opts))
		return &n.Routers[0].Tap, &n.Channels[0].Tap, &n.Sources[0].Tap
	}

	r, ch, src := wants(probe.Options{TraceEvery: 4})
	if !r.Wants(noc.EvSwitch) || !r.Wants(noc.EvRoute) || !r.Wants(noc.EvVCAlloc) {
		t.Error("tracer-only probe: router tap must want route, vc_alloc and switch")
	}
	if !ch.Wants(noc.EvGrant) || !ch.Wants(noc.EvFlitTx) || !ch.Wants(noc.EvRelease) {
		t.Error("tracer-only probe: channel tap must want grant, flit_tx and release")
	}
	if ch.Wants(noc.EvDeliver) || src.Wants(noc.EvLaunch) {
		t.Error("tracer-only probe: taps want kinds only the recorder or checker read")
	}

	r, ch, src = wants(probe.Options{Spans: true})
	if !r.Wants(noc.EvSwitch) || !ch.Wants(noc.EvFlitTx) || !src.Wants(noc.EvEnqueue) {
		t.Error("span-only probe: taps must want the attribution points")
	}
	if r.Wants(noc.EvRoute) || r.Wants(noc.EvVCAlloc) || ch.Wants(noc.EvGrant) || ch.Wants(noc.EvRelease) {
		t.Error("span-only probe: taps want kinds only the tracer reads")
	}

	r, ch, src = wants(probe.Options{MetricsEvery: 64})
	for k := noc.EventKind(0); k < noc.NumEventKinds; k++ {
		if r.Wants(k) || ch.Wants(k) || src.Wants(k) {
			t.Errorf("sampler-only probe: a tap wants kind %d", k)
		}
	}
}
