package fabric

import (
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
)

// TestNoRecycledFlitInFlight drives a network hard enough that packet
// pools cycle many times and asserts, at every switch traversal and every
// ejection, that the flit/packet being handled still belongs to a live
// lifetime. A failure here means a packet was recycled while one of its
// flits was still traveling — a violation of the tail-flit ownership
// protocol documented on noc.Pool.
func TestNoRecycledFlitInFlight(t *testing.T) {
	n := ring(4, power.NewMeter(nil))
	for _, r := range n.Routers {
		r.Tap.Subscribe(noc.Mask(noc.EvSwitch), func(e noc.Event) {
			if f := e.Flit; !f.Live() {
				t.Fatalf("recycled flit in flight: pkt %d seq %d (in %d out %d)", f.Pkt.ID, f.Seq, e.A, e.B)
			}
		})
	}
	for _, snk := range n.Sinks {
		snk.Tap.Subscribe(noc.Mask(noc.EvEject), func(e noc.Event) {
			// The tail just arrived; the lifetime must still be open
			// (the sink recycles only after this subscriber returns).
			if p := e.Pkt; p.EjectedAt == 0 && p.InjectedAt == 0 {
				t.Fatalf("ejection subscriber saw a zeroed (recycled) packet %d", p.ID)
			}
		})
	}
	res := n.Run(
		TrafficSpec{Pattern: traffic.Uniform, Rate: 0.2, PktFlits: 3, Seed: 5},
		RunSpec{Warmup: 200, Measure: 2000},
	)
	if !res.Drained {
		t.Fatal("ring failed to drain")
	}
	var gets, news, recycled uint64
	for _, src := range n.Sources {
		pl := src.Pool()
		gets += pl.Gets
		news += pl.News
		recycled += pl.Recycled
	}
	if gets == 0 {
		t.Fatal("pools never engaged: generators are not drawing from source freelists")
	}
	if news >= gets {
		t.Fatalf("no packet reuse: %d gets, %d fresh allocations", gets, news)
	}
	if recycled == 0 {
		t.Fatal("sinks never recycled a packet")
	}
}

// TestPooledRunMatchesUnpooledGenerators pins the semantic neutrality of
// pooling at the fabric level: a generator installed without the pool
// hookup (plain Gen assignment — fresh allocation per packet, Recycle a
// no-op) must produce a Result byte-identical to the pooled path. The two
// runs replicate Network.Run's wiring so only the installation differs.
func TestPooledRunMatchesUnpooledGenerators(t *testing.T) {
	run := func(pooled bool) Result {
		n := ring(4, power.NewMeter(nil))
		col := stats.NewCollector(n.NumCores, 200, 2200)
		n.Collector = col
		for id, src := range n.Sources {
			gen := traffic.NewBernoulli(id, n.NumCores, traffic.Uniform, 0.1, 3, 11, nil)
			gen.MeasureFrom, gen.MeasureTo = 200, 2200
			if pooled {
				src.SetGenerator(gen)
			} else {
				src.Gen = gen // no UsePool: every packet freshly allocated
			}
			src.OnAccepted = col.OnCreated
			n.Sinks[id].OnPacket = col.OnEjected
		}
		n.Eng.Run(2200)
		drained := n.Eng.RunUntil(func() bool { return col.Pending() == 0 }, 8000)
		return n.Priced(Result{Summary: col.Summary(), Drained: drained})
	}
	pooled := run(true)
	unpooled := run(false)
	if pooled != unpooled {
		t.Fatalf("pooling changed simulation results:\npooled   %+v\nunpooled %+v", pooled, unpooled)
	}
}
