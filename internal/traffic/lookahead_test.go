package traffic

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/sim"
)

// emitted is everything a packet carries out of its generator.
type emitted struct {
	cycle, id            uint64
	dst, numFlits, class int
	measure              bool
}

func record(out []emitted, g *Bernoulli, c uint64) []emitted {
	if p := g.Generate(c); p != nil {
		out = append(out, emitted{c, p.ID, p.Dst, p.NumFlits, p.Class, p.Measure})
	}
	return out
}

// polled drives g the way an always-awake source does: one Generate per
// cycle.
func polled(g *Bernoulli, cycles uint64) []emitted {
	var out []emitted
	for c := uint64(0); c < cycles; c++ {
		out = record(out, g, c)
	}
	return out
}

// engineOrder drives gens the way one engine's compute phase drives their
// sources under the active-set scheduler: cycle by cycle, in index order,
// a source ticking only when awake. While busy(i, c) a source ticks every
// cycle and never asks; when idle it asks NextPending after each tick and
// sleeps until the cycle named (or for good, on false). A busy stretch that
// starts mid-sleep wakes it early, exactly like a spurious wake. crossed
// counts the seams (the last cycle of a window) on which an idle source
// asked NextPending across the seam before a later source generated a
// packet on that same cycle.
func engineOrder(gens []*Bernoulli, cycles uint64, busy func(i int, c uint64) bool) (out [][]emitted, crossed int) {
	out = make([][]emitted, len(gens))
	asleep := make([]bool, len(gens))
	forGood := make([]bool, len(gens))
	wake := make([]uint64, len(gens))
	for c := uint64(0); c < cycles; c++ {
		seam, asked := (c+1)%lookahead == 0, false
		for i, g := range gens {
			if asleep[i] && !busy(i, c) && (forGood[i] || c < wake[i]) {
				continue
			}
			before := len(out[i])
			out[i] = record(out[i], g, c)
			if seam && asked && len(out[i]) > before {
				crossed, asked = crossed+1, false
				seam = false // count each seam once
			}
			if asleep[i] = !busy(i, c); asleep[i] {
				next, ok := g.NextPending(c + 1)
				if ok && next <= c {
					panic("NextPending went backwards")
				}
				wake[i], forGood[i] = next, !ok
				asked = true
			}
		}
	}
	return out, crossed
}

// eachProducerPath runs f once for each way a producer can draw on this
// host: source by source, and four at a time (lanes) where sim.VectorScan
// holds. f hands back a generator it attached to a producer, to show which
// path that producer took.
func eachProducerPath(t *testing.T, f func(path string) *Bernoulli) {
	t.Helper()
	defer func(was bool) { inLanes = was }(inLanes)
	for _, on := range []bool{false, true} {
		if inLanes = on; on && !sim.VectorScan() {
			continue
		}
		path := map[bool]string{false: "per-source", true: "lanes"}[on]
		if g := f(path); (g.pipe.lanes != nil) != on {
			t.Fatalf("%s: the producer drew the other way", path)
		}
	}
}

func sameEmissions(t *testing.T, name string, got, want []emitted) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: windows emitted %d packets, polling %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d: windows %+v, polling %+v", name, i, got[i], want[i])
		}
	}
}

func TestLookAheadEmitsWhatPollingEmits(t *testing.T) {
	const cycles = 400_000
	idle := func(int, uint64) bool { return false }
	// Busy for 40 cycles out of every 1000, and for one long stretch.
	mixed := func(_ int, c uint64) bool { return c%1000 < 40 || (c > 150_000 && c < 170_000) }
	classify := func(src, dst int) int { return (src + dst) % 3 }
	rr := RequestReply()

	cases := []struct {
		name      string
		src       int
		pattern   Pattern
		rate      float64
		sizes     *SizeDist
		wantEmpty bool
	}{
		{name: "uniform", src: 3, pattern: Uniform, rate: 0.001},
		{name: "uniform-busy-rate", src: 3, pattern: Uniform, rate: 0.5},
		{name: "hotspot", src: 7, pattern: Hotspot, rate: 0.002},
		{name: "bitreversal", src: 1, pattern: BitReversal, rate: 0.002},
		// Source 0 is a fixed point of bit reversal: every hit draws
		// nothing further and builds no packet.
		{name: "bitreversal-fixed-point", src: 0, pattern: BitReversal, rate: 0.002, wantEmpty: true},
		{name: "sizes", src: 9, pattern: Uniform, rate: 0.001, sizes: &rr},
		// Mean gap 50 000 cycles: most windows hold nothing.
		{name: "beyond-window", src: 2, pattern: Uniform, rate: 0.0001},
		{name: "prob-zero", src: 3, pattern: Uniform, rate: 0, wantEmpty: true},
		{name: "prob-one", src: 3, pattern: Uniform, rate: 5},
	}
	for _, tc := range cases {
		mk := func() *Bernoulli {
			g := NewBernoulli(tc.src, 64, tc.pattern, tc.rate, 5, 11, classify)
			if tc.sizes != nil {
				g.SetSizes(*tc.sizes)
			}
			g.MeasureFrom, g.MeasureTo = 1000, 300_000
			return g
		}
		want := polled(mk(), cycles)
		if (len(want) == 0) != tc.wantEmpty {
			t.Fatalf("%s: %d packets emitted, wantEmpty=%v", tc.name, len(want), tc.wantEmpty)
		}
		for _, busy := range []func(int, uint64) bool{idle, mixed} {
			// Filled inline, then by a producer.
			g := mk()
			got, _ := engineOrder([]*Bernoulli{g}, cycles, busy)
			sameEmissions(t, tc.name+"/inline", got[0], want)
			// The inline window drew exactly what polling draws up to its
			// end, no more.
			ref := mk()
			polled(ref, g.end)
			if tc.rate > 0 && *ref.rng != *g.rng {
				t.Fatalf("%s: the inline window drew something polling does not", tc.name)
			}

			eachProducerPath(t, func(path string) *Bernoulli {
				g := mk()
				stop := Produce([]*Bernoulli{g}, 0)
				got, _ := engineOrder([]*Bernoulli{g}, cycles, busy)
				stop()
				sameEmissions(t, tc.name+"/producer/"+path, got[0], want)
				return g
			})
		}
	}

	// Groups on one producer, by both paths: counts that leave the last
	// four short, zero-rate generators between the others, a source that
	// sends every cycle, every pattern at fixed and request/reply sizes.
	const groupCycles = 3*lookahead + 500
	for _, pattern := range append(AllPaperPatterns(), Hotspot) {
		for _, sizes := range []*SizeDist{nil, &rr} {
			mk := func(i int) *Bernoulli {
				mean := 5.0
				if sizes != nil {
					mean = sizes.Mean()
				}
				g := NewBernoulli(i, 64, pattern, []float64{0.004, 0, 1, 0.0003, 0.05}[i%5]*mean, 5, 13, classify)
				if sizes != nil {
					g.SetSizes(*sizes)
				}
				g.MeasureFrom, g.MeasureTo = 100, 2*lookahead
				return g
			}
			for _, count := range []int{1, 3, 5, 17} {
				eachProducerPath(t, func(path string) *Bernoulli {
					gens := make([]*Bernoulli, count)
					for i := range gens {
						gens[i] = mk(i)
					}
					stop := Produce(gens, 0)
					got, _ := engineOrder(gens, groupCycles, mixed)
					stop()
					for i := range gens {
						name := fmt.Sprintf("%v/sizes=%v/%d generators/%s: source %d", pattern, sizes != nil, count, path, i)
						sameEmissions(t, name, got[i], polled(mk(i), groupCycles))
					}
					return gens[0]
				})
			}
		}
	}
}

// Many sources share one producer's windows, and the engine polls them in
// index order: on the last cycle W-1 of a window, an idle source that asks
// NextPending(W) must not retire the window while a later source has yet to
// generate its packet at W-1. Every pattern and the request/reply mix, with
// arrivals on W-1, W and W+1.
func TestProducerWindowSeam(t *testing.T) {
	const sources, windows = 24, 4
	rr := RequestReply()
	// Sources 0, 3, 6, ... are busy for a stretch that ends just before a
	// seam, so they tick on the window's last cycle and ask across it.
	busy := func(i int, c uint64) bool {
		at := c % lookahead
		return i%3 == 0 && at >= lookahead-40 && at < lookahead-1
	}
	for _, pattern := range append(AllPaperPatterns(), Hotspot) {
		for _, sizes := range []*SizeDist{nil, &rr} {
			name := fmt.Sprintf("%v/sizes=%v", pattern, sizes != nil)
			mk := func(i int) *Bernoulli {
				// From nearly every cycle down to once in ~2 windows.
				p := []float64{0.9, 0.3, 0.02, 0.0005}[i%4]
				mean := 5.0
				if sizes != nil {
					mean = sizes.Mean()
				}
				g := NewBernoulli(i, 64, pattern, p*mean, 5, 29, func(src, dst int) int { return dst % 4 })
				if sizes != nil {
					g.SetSizes(*sizes)
				}
				g.MeasureFrom, g.MeasureTo = 100, 3*lookahead
				return g
			}
			eachProducerPath(t, func(path string) *Bernoulli {
				gens := make([]*Bernoulli, sources)
				for i := range gens {
					gens[i] = mk(i)
				}
				stop := Produce(gens, 0)
				got, crossed := engineOrder(gens, windows*lookahead, busy)
				stop()
				onSeam := map[uint64]bool{}
				for i := range gens {
					want := polled(mk(i), windows*lookahead)
					sameEmissions(t, fmt.Sprintf("%s/%s source %d", name, path, i), got[i], want)
					for _, e := range want {
						if at := e.cycle % lookahead; e.cycle+1 >= lookahead && (at == lookahead-1 || at <= 1) {
							onSeam[at] = true
						}
					}
				}
				if crossed < windows-1 {
					t.Fatalf("%s/%s: only %d of %d seams had a source ask across them before another generated on them", name, path, crossed, windows-1)
				}
				if len(onSeam) != 3 {
					t.Fatalf("%s/%s: arrivals on seam offsets %v, want W-1, W and W+1", name, path, onSeam)
				}
				return gens[0]
			})
		}
	}
}

// A panic while drawing (a transpose over a non-square core count) happens
// on the producer's goroutine and is raised on the simulation thread, where
// a caller can recover it.
func TestProducerPanicReachesTheSimulationThread(t *testing.T) {
	g := NewBernoulli(1, 8, Transpose, 1, 1, 3, nil)
	stop := Produce([]*Bernoulli{g}, 0)
	defer stop()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "traffic: 8 is not a perfect square") {
			t.Fatalf("Generate panicked with %q, want the producer's panic", msg)
		}
	}()
	g.Generate(0)
}

func TestNextPendingContract(t *testing.T) {
	// Zero rate: never pending, and not one draw spent finding out.
	g := NewBernoulli(1, 64, Uniform, 0, 5, 7, nil)
	before := *g.rng
	if _, ok := g.NextPending(1); ok || *g.rng != before {
		t.Fatal("zero-rate generator must report exhausted without drawing")
	}

	// The first call switches a polled generator to windows starting at
	// from: it names from itself, and Generate(from) draws the window.
	g = NewBernoulli(1, 64, Uniform, 0.02, 5, 7, nil)
	g.Generate(0)
	before = *g.rng
	if next, ok := g.NextPending(1); !ok || next != 1 || *g.rng != before {
		t.Fatalf("first NextPending(1) = %d, %v (drew %v); want 1 without a draw", next, ok, *g.rng != before)
	}
	g.Generate(1)
	if g.end != 1+lookahead {
		t.Fatalf("first window ends at %d, want [1, %d)", g.end, 1+lookahead)
	}

	// An arrival is reported again, unchanged, until Generate consumes it,
	// and calls before it draw nothing.
	hit, ok := g.NextPending(2)
	if !ok || hit < 2 || hit >= g.end {
		t.Fatalf("NextPending(2) = %d, %v; want an arrival inside the window", hit, ok)
	}
	drawn := *g.rng
	for c := uint64(2); c < hit; c++ {
		if g.Generate(c) != nil {
			t.Fatalf("packet at %d, before the announced cycle %d", c, hit)
		}
		if again, ok := g.NextPending(c + 1); !ok || again != hit {
			t.Fatalf("NextPending(%d) = %d, %v; want the announced %d", c+1, again, ok, hit)
		}
	}
	if *g.rng != drawn {
		t.Fatal("calls inside the window drew from the RNG")
	}
	if p := g.Generate(hit); p == nil || p.Src != 1 {
		t.Fatalf("no packet at the announced cycle %d: %+v", hit, p)
	}

	// A window holding nothing more names its end, also when asked from
	// its last cycle, and the ask neither draws nor moves the window.
	g = NewBernoulli(1, 64, Uniform, 1e-12, 5, 7, nil)
	g.NextPending(0)
	g.Generate(0)
	drawn = *g.rng
	for _, from := range []uint64{10, lookahead} {
		if next, ok := g.NextPending(from); !ok || next != lookahead || *g.rng != drawn || g.end != lookahead {
			t.Fatalf("NextPending(%d) = %d, %v; want the window's end %d, nothing drawn", from, next, ok, lookahead)
		}
	}
	if g.Generate(lookahead) != nil || g.end != 2*lookahead {
		t.Fatalf("Generate at the window's end must read the next window [%d, %d)", lookahead, 2*lookahead)
	}
}

// The window decides how often an idle source wakes and how far past the
// end of a run it draws, never what it emits: the flips are consumed in
// cycle order whatever the chunking.
func TestHorizonDoesNotMoveAPacket(t *testing.T) {
	emit := func(window uint64) (cycles []uint64, g *Bernoulli) {
		g = NewBernoulli(5, 64, Uniform, 5e-4, 5, 22, nil) // p = 1e-4 per cycle
		for base := uint64(0); base < 1<<18; base += window {
			for _, a := range g.fill(base, base+window, nil) {
				cycles = append(cycles, base+uint64(a.off))
			}
		}
		return cycles, g
	}
	want, far := emit(1 << 16)
	if len(want) < 5 {
		t.Fatalf("only %d packets in 2^18 cycles at p = 1e-4", len(want))
	}
	for _, w := range []uint64{lookahead >> 2, lookahead} {
		got, g := emit(w)
		if !slices.Equal(got, want) || *g.rng != *far.rng {
			t.Errorf("window %d: packets at %v, at window %d %v", w, got, 1<<16, want)
		}
	}
}

func TestNewBernoulliRejectsProbabilityAboveOne(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("rate > pktFlits", func() { NewBernoulli(0, 64, Uniform, 5.5, 5, 1, nil) })
	mustPanic("negative rate", func() { NewBernoulli(0, 64, Uniform, -0.1, 5, 1, nil) })
	mustPanic("SetSizes past 1", func() {
		g := NewBernoulli(0, 64, Uniform, 3, 5, 1, nil)
		g.SetSizes(SizeDist{ShortFlits: 1, LongFlits: 2, LongFrac: 0})
	})
	NewBernoulli(0, 64, Uniform, 5, 5, 1, nil) // probability exactly 1 is legal
}
