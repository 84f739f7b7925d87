// Package probe is the simulator's deterministic observability layer:
// a metric registry (counters and gauges with hierarchical names), a
// cycle-windowed sampler that snapshots every registered metric every K
// simulated cycles, a per-packet lifecycle tracer, and a machine-readable
// run manifest.
//
// Everything in this package obeys the repository's determinism contract
// (see DESIGN.md §9/§10): no wall clock, no global RNG, no map-order
// iteration. All timestamps are simulated cycles, all iteration follows
// registration order, and every exported artifact (metrics CSV,
// latency-breakdown CSV, Chrome-JSON trace, manifest JSON) is
// byte-identical across repeated runs of the same configuration and
// seed, regardless of GOMAXPROCS. Tests assert this, and tests also
// assert the layer is inert: enabling probes must not change any
// stats.Summary.
//
// The hot-path contract is the disabled fast path: components keep their
// own counts in plain integers (the registry only holds functions that
// read them) and hold one noc.Tap that has no subscribers when probing is
// disabled, so an uninstrumented simulation pays only a mask test per
// potential event. fabric.Network.InstallProbe wires a Probe into an
// assembled network.
package probe

// Options configures a Probe. The zero value disables everything.
type Options struct {
	// MetricsEvery is the sampling window in simulated cycles: the
	// sampler snapshots all registered metrics at every cycle that is a
	// multiple of MetricsEvery. Zero disables metric sampling.
	MetricsEvery uint64
	// TraceEvery enables packet tracing for packets whose ID is a
	// multiple of TraceEvery (1 traces every packet). Zero disables
	// tracing. Packet IDs are src<<40|seq with a per-source sequence
	// starting at 1, so a power-of-two stride traces every Nth packet
	// of every source (a short run may trace nothing at a large
	// stride); any stride selects a deterministic subset, identical
	// across runs.
	TraceEvery uint64
	// Spans enables per-packet latency attribution: every measured
	// packet's end-to-end latency is decomposed into per-phase cycle
	// counts, and its token waits are booked per channel and source tile
	// (see SpanTracker). Off by default; unlike the tracer it follows
	// every measured packet, not a sampled subset.
	Spans bool
}

// DefaultMaxTraceEvents bounds the tracer's in-memory event buffer (~24
// MiB of events); events beyond it are dropped and counted.
const DefaultMaxTraceEvents = 1 << 20

// Probe bundles the registry, sampler and tracer for one simulation run.
// A nil *Probe is valid everywhere and disables all instrumentation.
type Probe struct {
	reg *Registry
	smp *Sampler
	trc *Tracer
	spn *SpanTracker
}

// New creates a probe. The registry always exists; the sampler and
// tracer exist only when the corresponding option enables them.
func New(o Options) *Probe {
	p := &Probe{reg: NewRegistry()}
	if o.MetricsEvery > 0 {
		p.smp = newSampler(p.reg, o.MetricsEvery)
	}
	if o.TraceEvery > 0 {
		p.trc = newTracer(o.TraceEvery, DefaultMaxTraceEvents)
	}
	if o.Spans {
		p.spn = newSpanTracker()
	}
	return p
}

// Registry returns the metric registry, or nil on a nil probe (a nil
// *Registry hands out nil handles, completing the fast path).
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Sampler returns the cycle-windowed sampler, or nil when metric
// sampling is disabled.
func (p *Probe) Sampler() *Sampler {
	if p == nil {
		return nil
	}
	return p.smp
}

// Tracer returns the packet tracer, or nil when tracing is disabled.
func (p *Probe) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.trc
}

// Spans returns the latency-attribution tracker, or nil when span
// decomposition is disabled (a nil *SpanTracker ignores every call,
// completing the fast path).
func (p *Probe) Spans() *SpanTracker {
	if p == nil {
		return nil
	}
	return p.spn
}

// Flush records a final metric sample at the given end-of-run cycle if
// one was not already taken there; fabric.Network.Run calls it after the
// drain phase so the last window is never lost.
func (p *Probe) Flush(cycle uint64) {
	if p == nil || p.smp == nil {
		return
	}
	p.smp.Flush(cycle)
}
