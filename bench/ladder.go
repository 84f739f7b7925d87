package main

import (
	"strings"
	"time"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
)

// rung is one step of the ladder: one layer's public API driven in
// isolation, so a regression or a win can be attributed to that layer
// without a profiler. The top two rungs of ROADMAP's ladder are the
// own256-sat and own1024-low workloads themselves.
type rung struct {
	// Name is the per-layer metric the rung reports.
	Name string
	// PerSecond reports operations per second instead of nanoseconds per
	// operation.
	PerSecond bool
	// Setup builds the fixture and returns a function performing n
	// operations; successive calls continue from the fixture's state.
	Setup func() func(n int)
}

// sink keeps results alive so the compiler cannot drop the measured
// loops.
var sink uint64

type nopFlitSink struct{}

func (nopFlitSink) ReceiveFlit(int, *noc.Flit) {}

type nopCreditSink struct{}

func (nopCreditSink) ReceiveCredit(int, int) {}

func ladder() []rung {
	return []rung{
		{Name: "ladder.rng_ns_per_draw", Setup: func() func(int) {
			r := sim.NewRNG(1)
			return func(n int) {
				var x uint64
				for i := 0; i < n; i++ {
					x ^= r.Uint64()
				}
				sink += x
			}
		}},
		// One always-on source's draw at own1024-low's rate: almost every
		// call returns nil.
		{Name: "ladder.generate_ns_per_call", Setup: func() func(int) {
			var pl noc.Pool
			g := traffic.NewBernoulli(0, 1024, traffic.Uniform, 0.0005, 5, 1, nil)
			g.UsePool(&pl)
			cycle := uint64(0)
			return func(n int) {
				for i := 0; i < n; i++ {
					if p := g.Generate(cycle); p != nil {
						noc.Recycle(p)
					}
					cycle++
				}
			}
		}},
		// One engine step over 4096 registered, traffic-less wires: the
		// steady-state cost of components with nothing to do.
		{Name: "ladder.step_idle_ns", Setup: func() func(int) {
			e := sim.NewEngine()
			for i := 0; i < 4096; i++ {
				w := noc.NewWire(nopCreditSink{}, 0, nopFlitSink{}, 0, 1, 1)
				w.SetWaker(e.RegisterWakeable(sim.PhaseDelivery, w))
			}
			e.Step() // every wire ticks once and goes to sleep
			return func(n int) {
				for i := 0; i < n; i++ {
					e.Step()
				}
			}
		}},
		// One packet lifetime: Get, materialize five flits, Recycle.
		{Name: "ladder.pool_ns_per_packet", Setup: func() func(int) {
			var pl noc.Pool
			return func(n int) {
				for i := 0; i < n; i++ {
					p := pl.Get()
					p.NumFlits = 5
					sink += uint64(len(noc.FlitsOf(p)))
					noc.Recycle(p)
				}
			}
		}},
		// One flit through a one-cycle wire: Send, then the Tick that
		// delivers it.
		{Name: "ladder.wire_ns_per_flit", Setup: func() func(int) {
			w := noc.NewWire(nopCreditSink{}, 0, nopFlitSink{}, 0, 1, 1)
			f := noc.MakeFlits(&noc.Packet{NumFlits: 1})[0]
			cycle := uint64(0)
			return func(n int) {
				for i := 0; i < n; i++ {
					w.Send(f)
					cycle++
					w.Tick(cycle)
				}
			}
		}},
		{Name: "ladder.router_ns_per_flit_hop", Setup: func() func(int) {
			n := buildRouter8()
			attachUniform(n, 0.4)
			return func(ops int) {
				for target := n.Meter.NBufWrite + uint64(ops); n.Meter.NBufWrite < target; {
					n.Eng.Step()
				}
			}
		}},
		{Name: "ladder.sbus_ns_per_flit", Setup: newBusyChannel},
		{Name: "ladder.cluster16_cycles_per_s", PerSecond: true, Setup: func() func(int) {
			n := buildCluster16()
			attachUniform(n, cluster16HalfLoad)
			return func(cycles int) { n.Eng.Run(uint64(cycles)) }
		}},
	}
}

// attachUniform gives every source of a network a uniform-random
// Bernoulli generator at the given flit rate, as Network.Run does, so the
// engine can be stepped by hand.
func attachUniform(n *fabric.Network, rate float64) {
	for id, src := range n.Sources {
		src.SetGenerator(traffic.NewBernoulli(id, n.NumCores, traffic.Uniform, rate, 5, 1, nil))
	}
}

// buildRouter8 is one 8-port router with a terminal on every port and
// nothing else: a flit hop here is the router pipeline plus the two
// terminal wires.
func buildRouter8() *fabric.Network {
	const ports = 8
	n := fabric.New("router8", ports, power.NewMeter(nil))
	r := n.AddRouter(router.Config{
		ID: 0, NumPorts: ports, NumVCs: 4, BufDepth: 4,
		Route: func(p *noc.Packet, _ int) (int, uint32) { return p.Dst, 0xf },
	})
	for c := 0; c < ports; c++ {
		n.AddTerminal(c, r, c, c)
	}
	return n
}

// cluster16HalfLoad is half the 16-tile cluster's saturation throughput
// (accepted load plateaus at 0.33 f/n/c at the seed commit).
const cluster16HalfLoad = 0.165

// buildCluster16 assembles one 16-tile OWN cluster in isolation: a full
// MWSR photonic crossbar with one core per tile. Port layout per tile
// router: 0 terminal, 1..15 photonic write ports in ascending remote-tile
// order, 16 the home waveguide's read port. The benchmark's own tests use
// it as their small fixture.
func buildCluster16() *fabric.Network {
	const tiles = 16
	wp := func(w, t int) int {
		if t < w {
			return 1 + t
		}
		return t
	}
	n := fabric.New("cluster16", tiles, power.NewMeter(nil))
	n.Diameter = 2
	routers := make([]*router.Router, tiles)
	for i := range routers {
		tile := i
		routers[i] = n.AddRouter(router.Config{
			ID: tile, NumPorts: tiles + 1, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == tile {
					return 0, 3
				}
				return wp(tile, p.Dst), 3
			},
		})
	}
	photonic.BuildCrossbar(n, "cluster16", routers, photonic.PortMap{
		WriterPort: wp,
		ReaderPort: func(int) int { return tiles },
	}, photonic.CrossbarSpec{
		Tiles: tiles, SerializeCy: 1, PropCy: 2, TokenHopCy: 1, NumVCs: 2, BufDepth: 4,
	})
	for c := 0; c < tiles; c++ {
		n.AddTerminal(c, routers[c], 0, 0)
	}
	return n
}

// busyWriters is the writer count of the sbus rung's MWSR channel.
const busyWriters = 16

// busyChannel keeps one MWSR channel saturated: every writer always has
// a five-flit packet queued, the single receiver recredits at once.
type busyChannel struct {
	ch      *sbus.Channel
	writers [busyWriters]*sbus.Writer
	// flits holds two packets per writer, sent alternately, so a flit
	// still in flight is never queued a second time.
	flits   [busyWriters][2][]*noc.Flit
	next    [busyWriters]int
	pending [busyWriters]int // flits queued and not yet transmitted
	sent    int
	cycle   uint64
	rx      *sbus.Rx
}

// ReceiveCredit is called once per transmitted flit with the writer's
// index as port.
func (b *busyChannel) ReceiveCredit(port, _ int) {
	b.pending[port]--
	b.sent++
}

func (b *busyChannel) ReceiveFlit(_ int, f *noc.Flit) { b.rx.ReturnCredit(f.VC) }

func newBusyChannel() func(int) {
	b := &busyChannel{ch: sbus.NewChannel("ladder", 1, 2, 1)}
	for i := range b.writers {
		b.writers[i] = b.ch.AddWriter(b, i, 1, 8)
		for j := range b.flits[i] {
			b.flits[i][j] = noc.MakeFlits(&noc.Packet{ID: uint64(2*i + j + 1), NumFlits: 5})
		}
	}
	b.rx = b.ch.AddRx(b, 0, 1, 4)
	return func(n int) {
		for target := b.sent + n; b.sent < target; b.cycle++ {
			for i, w := range b.writers {
				if b.pending[i] == 0 {
					fl := b.flits[i][b.next[i]]
					b.next[i] ^= 1
					for _, f := range fl {
						w.Send(f)
					}
					b.pending[i] = len(fl)
				}
			}
			b.ch.Tick(b.cycle)
		}
	}
}

func isLadder(metric string) bool { return strings.HasPrefix(metric, "ladder.") }

// measureLadder measures every rung once.
func measureLadder() map[string]float64 {
	vals := map[string]float64{}
	for _, r := range ladder() {
		vals[r.Name] = r.measure()
	}
	return vals
}

// measure runs one rung and returns its metric: the median over five
// batches, each sized to last about 20 ms, of nanoseconds per operation
// (or operations per second).
func (r rung) measure() float64 {
	run := r.Setup()
	batch := func(n int) time.Duration {
		t0 := time.Now()
		run(n)
		return time.Since(t0)
	}
	n := 64
	for batch(n) < 20*time.Millisecond {
		n *= 2
	}
	var xs []float64
	for i := 0; i < 5; i++ {
		xs = append(xs, r.value(batch(n), n))
	}
	return median(xs)
}

// value converts the time n operations took into the rung's metric.
func (r rung) value(d time.Duration, n int) float64 {
	nsPerOp := float64(d.Nanoseconds()) / float64(n)
	if r.PerSecond {
		return 1e9 / nsPerOp
	}
	return nsPerOp
}
