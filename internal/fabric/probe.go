package fabric

import (
	"fmt"

	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/probe"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
)

// InstallProbe wires an observability probe into an assembled network:
// it registers metrics over the network's components, schedules the
// cycle-windowed sampler in the engine's Collect phase, sizes the span
// tracker's token ledger (one row per shared channel, one column per
// tile), and subscribes the per-packet tracer and span tracker to the
// component taps. Call it after the topology builder and before Run;
// install a flight recorder first, if any. A nil probe is a no-op. The
// probe layer is inert by construction: every metric is read from state
// the simulation already maintains, and every subscriber only records —
// enabling a probe never changes a Summary (tests assert this
// bit-for-bit).
func (n *Network) InstallProbe(p *probe.Probe) {
	if p == nil {
		return
	}
	if n.Probe != nil {
		panic(fmt.Sprintf("fabric %s: probe installed twice", n.Name))
	}
	n.Probe = p
	p.Spans().SizeTokenLedger(len(n.Channels), n.Tiles(), n.CoresPerTile)
	n.registerMetrics(p)
	if s := p.Sampler(); s != nil {
		n.Eng.Register(sim.PhaseCollect, s)
	}
	n.watchPackets(p.Tracer(), p.Spans())
	// The recorder's stall.* gauges ride behind every other column, so
	// artifact layouts without a recorder are unchanged.
	n.wireFlightRec(p)
}

// registerMetrics populates the probe registry with functions over state
// the components already maintain; the router's stall counts are the one
// thing it has to switch on.
func (n *Network) registerMetrics(p *probe.Probe) {
	reg := p.Registry()

	// Network-level aggregates, registered first so narrow dashboards
	// can read just the leading columns: the liveness sum's fields.
	for _, g := range []struct {
		name string
		of   func(flightrec.Progress) float64
	}{
		{"buffered_flits", func(p flightrec.Progress) float64 { return float64(p.BufferedFlits) }},
		{"generated_pkts", func(p flightrec.Progress) float64 { return float64(p.Generated) }},
		{"injected_pkts", func(p flightrec.Progress) float64 { return float64(p.Injected) }},
		{"dropped_pkts", func(p flightrec.Progress) float64 { return float64(p.Dropped) }},
		{"src_queued_pkts", func(p flightrec.Progress) float64 { return float64(p.SrcQueued) }},
		{"ejected_pkts", func(p flightrec.Progress) float64 { return float64(p.Ejected) }},
	} {
		reg.Gauge("net."+g.name, func() float64 { return g.of(n.Progress()) })
	}

	// Router pipeline counts, summed over the network.
	routers := n.Routers
	for _, r := range routers {
		r.CountStalls()
	}
	counts := []struct {
		name string
		of   func(router.Counts) uint64
	}{
		{"sa_grants", func(c router.Counts) uint64 { return c.SAGrants }},
		{"credit_stall", func(c router.Counts) uint64 { return c.CreditStall }},
		{"busy_stall", func(c router.Counts) uint64 { return c.BusyStall }},
	}
	for _, c := range counts {
		reg.CounterFunc("net."+c.name, func() uint64 {
			var total uint64
			for _, r := range routers {
				total += c.of(r.Counts())
			}
			return total
		})
	}

	// Energy attribution gauges: the cumulative picojoules of one pricing
	// read (power.Meter.Energy) each, one per component plus one per
	// wireless link-distance class. The sampler's cycle-windowed
	// snapshots turn these into per-window energy series; the registered
	// set is fixed here because channel class labels are complete once
	// the topology is built.
	if m := n.Meter; m != nil {
		reg.Gauge("energy.buf_write_pj", func() float64 { return float64(m.Energy().BufWrite) })
		reg.Gauge("energy.buf_read_pj", func() float64 { return float64(m.Energy().BufRead) })
		reg.Gauge("energy.xbar_pj", func() float64 { return float64(m.Energy().Xbar) })
		reg.Gauge("energy.arb_pj", func() float64 { return float64(m.Energy().Arb) })
		reg.Gauge("energy.elec_link_pj", func() float64 { return float64(m.Energy().ElecLink) })
		reg.Gauge("energy.photonic_pj", func() float64 { return float64(m.Energy().Photonic) })
		reg.Gauge("energy.wireless_tx_pj", func() float64 { return float64(m.Energy().WirelessTx) })
		reg.Gauge("energy.wireless_rx_pj", func() float64 { return float64(m.Energy().WirelessRx) })
		for _, class := range m.WirelessClasses() {
			reg.Gauge("energy.wireless."+class+"_pj", func() float64 {
				return float64(m.WirelessClassPJ(class))
			})
		}
	}

	// Shared-medium channels: cumulative stats the channel already
	// tracks, exported under the channel's name.
	for _, ch := range n.Channels {
		base := "ch." + ChannelLabel(ch)
		reg.Gauge(base+".transmitted", func() float64 { return float64(ch.Stats().Transmitted) })
		reg.Gauge(base+".busy_cy", func() float64 { return float64(ch.Stats().BusyCy) })
		reg.Gauge(base+".token_moves", func() float64 { return float64(ch.Stats().TokenMoves) })
		reg.Gauge(base+".credit_stall_cy", func() float64 { return float64(ch.Stats().CreditStallCy) })
	}

	// Engine-scheduler and packet-pool introspection: cumulative gauges
	// over state the scheduler and pools already maintain, registered
	// after the simulation metrics so established artifact columns keep
	// their positions.
	eng := n.Eng
	reg.Gauge("engine.fast_forwarded_cy", func() float64 { return float64(eng.FastForwarded()) })
	for _, ph := range []sim.Phase{sim.PhaseDelivery, sim.PhaseCompute, sim.PhaseCollect} {
		base := "engine." + ph.String()
		reg.Gauge(base+".ticks", func() float64 { return float64(eng.PhaseStats(ph).Ticks) })
		reg.Gauge(base+".wakes_event", func() float64 { return float64(eng.PhaseStats(ph).WakesEvent) })
		reg.Gauge(base+".wakes_timer", func() float64 { return float64(eng.PhaseStats(ph).WakesTimer) })
		reg.Gauge(base+".wakes_spurious", func() float64 { return float64(eng.PhaseStats(ph).WakesSpurious) })
		reg.Gauge(base+".awake_cy", func() float64 { return float64(eng.PhaseStats(ph).AwakeCycleSum) })
		reg.Gauge(base+".timer_heap_max", func() float64 { return float64(eng.PhaseStats(ph).TimerHeapMax) })
	}
	reg.Gauge("pool.gets", func() float64 { return float64(n.PoolIntro().Gets) })
	reg.Gauge("pool.fresh", func() float64 { return float64(n.PoolIntro().Fresh) })
	reg.Gauge("pool.recycled", func() float64 { return float64(n.PoolIntro().Recycled) })
	reg.Gauge("pool.high_water", func() float64 { return float64(n.PoolIntro().HighWater) })

	// Latency attribution totals, present only when span decomposition
	// is on: cumulative per-phase cycle counts plus the identity inputs
	// (packets, summed latency, mismatches — the last must stay zero).
	sp := p.Spans()
	if sp == nil {
		return
	}
	reg.Gauge("span.packets", func() float64 { return float64(sp.Packets()) })
	reg.Gauge("span.latency_cy", func() float64 { return float64(sp.LatencyCycles()) })
	reg.Gauge("span.mismatches", func() float64 { return float64(sp.Mismatches()) })
	for ph := probe.SpanPhase(0); ph < probe.NumSpanPhases; ph++ {
		reg.Gauge("span."+ph.String()+"_cy", func() float64 { return float64(sp.PhaseCycles(ph)) })
	}
	// Token waits per medium: the channel rows of the span tracker's
	// token ledger, summed at each read.
	chans := n.Channels
	for _, medium := range []string{"photonic", "wireless"} {
		total := func() probe.TokenCell {
			var t probe.TokenCell
			for ci, ch := range chans {
				if TokenMedium(ch) == medium {
					t.Add(sp.TokenRow(ci))
				}
			}
			return t
		}
		reg.Gauge("token."+medium+".acquisitions", func() float64 { return float64(total().Acqs) })
		reg.Gauge("token."+medium+".wait_cy", func() float64 { return float64(total().WaitCy) })
		reg.Gauge("token."+medium+".max_wait_cy", func() float64 { return float64(total().MaxCy) })
	}
}

// EngineIntro snapshots the engine's scheduler counters for the state
// dump.
func (n *Network) EngineIntro() probe.EngineIntro {
	ei := probe.EngineIntro{
		Cycles:          n.Eng.Cycle(),
		FastForwardedCy: n.Eng.FastForwarded(),
	}
	for _, ph := range []sim.Phase{sim.PhaseDelivery, sim.PhaseCompute, sim.PhaseCollect} {
		st := n.Eng.PhaseStats(ph)
		ei.Phases = append(ei.Phases, probe.PhaseIntro{
			Phase:         ph.String(),
			Ticks:         st.Ticks,
			WakesEvent:    st.WakesEvent,
			WakesTimer:    st.WakesTimer,
			WakesSpurious: st.WakesSpurious,
			AwakeCycleSum: st.AwakeCycleSum,
			TimerHeapMax:  st.TimerHeapMax,
		})
	}
	return ei
}

// PoolIntro aggregates the packet-pool counters over every source pool;
// HighWater sums the per-pool high-water marks, an upper bound on the
// network-wide in-flight packet peak (the per-pool peaks need not
// coincide).
func (n *Network) PoolIntro() probe.PoolIntro {
	var pi probe.PoolIntro
	for _, s := range n.Sources {
		pl := s.Pool()
		pi.Gets += pl.Gets
		pi.Fresh += pl.News
		pi.Recycled += pl.Recycled
		pi.HighWater += pl.HighWater
	}
	return pi
}

// RouterLabels returns one display label per router, index-aligned with
// CongestionValues, for heatmap artifacts.
func (n *Network) RouterLabels() []string {
	labels := make([]string, len(n.Routers))
	for i, r := range n.Routers {
		labels[i] = fmt.Sprintf("r%d", r.Cfg.ID)
	}
	return labels
}

// CongestionValues returns one congestion figure per router: the sum of
// its credit-stall and busy-stall counts over the run. Routers count
// stalls only once a probe is installed; with no probe it is all zeros.
func (n *Network) CongestionValues() []float64 {
	vals := make([]float64, len(n.Routers))
	for i, r := range n.Routers {
		c := r.Counts()
		vals[i] = float64(c.CreditStall + c.BusyStall)
	}
	return vals
}

// ChannelLabel prefixes a channel's name with its medium kind so metric
// names, trace threads and fairness rows read "photonic.c0/home3.1",
// "wireless.wl ...".
func ChannelLabel(ch *sbus.Channel) string {
	if ch.Kind == "" {
		return ch.Name
	}
	return ch.Kind + "." + ch.Name
}

// TokenMedium names the medium a channel's token waits are reported
// under: "wireless" for a wireless channel, "photonic" for every other
// (every non-wireless shared medium is a waveguide).
func TokenMedium(ch *sbus.Channel) string {
	if ch.Kind == "wireless" {
		return "wireless"
	}
	return "photonic"
}

// channelTransit maps a shared channel to the span phase its flight
// time is attributed to: the medium kind, refined for wireless channels
// by the link-distance class the builders stamp on them.
func channelTransit(ch *sbus.Channel) probe.SpanPhase {
	switch ch.Kind {
	case "photonic":
		return probe.SpanPhotonic
	case "wireless":
		return probe.WirelessSpanPhase(ch.Class)
	}
	return probe.SpanElec
}

// watchPackets subscribes the trace sampler and/or the latency-attribution
// tracker (either may be nil) to every source, sink, router and shared
// channel tap. Components are registered with the tracer in deterministic
// order (sources, sinks, routers, channels, each in index order), so
// thread IDs — and therefore the exported trace bytes — are reproducible.
func (n *Network) watchPackets(t *probe.Tracer, sp *probe.SpanTracker) {
	for id, src := range n.Sources {
		sp.Watch(&src.Tap)
		t.Watch(&src.Tap, fmt.Sprintf("src.%d", id))
	}
	for id, snk := range n.Sinks {
		sp.Watch(&snk.Tap)
		t.Watch(&snk.Tap, fmt.Sprintf("sink.%d", id))
	}
	for _, r := range n.Routers {
		sp.Watch(&r.Tap)
		t.Watch(&r.Tap, fmt.Sprintf("router.%d", r.Cfg.ID))
	}
	for ci, ch := range n.Channels {
		t.Watch(&ch.Tap, ChannelLabel(ch))
		if sp == nil {
			continue
		}
		// Channel parameters are fixed once the topology is built, so the
		// subscriber captures them resolved rather than re-deriving per flit.
		hop := probe.ChannelHop{
			Ledger:      ci,
			SerializeCy: ch.SerializeCy,
			PropCy:      ch.PropCy,
			Transit:     channelTransit(ch),
			SWMRFwd:     ch.Kind == "wireless" && ch.NumRx() > 1,
		}
		ch.Tap.Subscribe(noc.Mask(noc.EvFlitTx), func(e noc.Event) {
			sp.ChannelTx(e.Cycle, e.Flit, hop)
		})
	}
}
