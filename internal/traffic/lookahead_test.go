package traffic

import (
	"slices"
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
// cycle. at, when non-nil, runs before each cycle (to move Stop).
func polled(g *Bernoulli, cycles uint64, at func(uint64, *Bernoulli)) []emitted {
	var out []emitted
	for c := uint64(0); c < cycles; c++ {
		if at != nil {
			at(c, g)
		}
		out = record(out, g, c)
	}
	return out
}

// lookedAhead drives g the way router.Source does under the active-set
// scheduler: while busy(c) it ticks every cycle and never asks; when idle
// it asks NextPending after each tick and skips to the cycle it names (or
// for good, on false). A busy stretch that starts mid-sleep wakes it
// early, exactly like a spurious wake.
func lookedAhead(g *Bernoulli, cycles uint64, busy func(uint64) bool, at func(uint64, *Bernoulli)) []emitted {
	var out []emitted
	asleep, forGood, wake := false, false, uint64(0)
	for c := uint64(0); c < cycles; c++ {
		if at != nil {
			at(c, g)
		}
		if asleep && !busy(c) && (forGood || c < wake) {
			continue
		}
		out = record(out, g, c)
		asleep = !busy(c)
		if asleep {
			next, ok := g.NextPending(c + 1)
			if ok && next <= c {
				panic("NextPending went backwards")
			}
			wake, forGood = next, !ok
		}
	}
	return out
}

// caughtUp polls ref forward until it has consumed the coin flips la's
// look-ahead already has, and reports whether the two RNGs then agree:
// the look-ahead must have drawn exactly what polling draws, no more.
func caughtUp(ref, la *Bernoulli, from uint64) bool {
	for c := from; c < la.skipTo; c++ {
		if ref.Generate(c) != nil {
			return false // a flip the look-ahead called a failure
		}
	}
	if la.armed && !ref.rng.Below(ref.thresh) {
		return false
	}
	return *ref.rng == *la.rng
}

func TestLookAheadEmitsWhatPollingEmits(t *testing.T) {
	const cycles = 400_000
	idle := func(uint64) bool { return false }
	// Busy for 40 cycles out of every 1000, and for one long stretch.
	mixed := func(c uint64) bool { return c%1000 < 40 || (c > 150_000 && c < 170_000) }
	classify := func(src, dst int) int { return (src + dst) % 3 }
	rr := RequestReply()

	cases := []struct {
		name      string
		src       int
		pattern   Pattern
		rate      float64
		sizes     *SizeDist
		stop      uint64
		at        func(uint64, *Bernoulli)
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
		// Mean gap 50 000 cycles: most scans run into the horizon.
		{name: "beyond-horizon", src: 2, pattern: Uniform, rate: 0.0001},
		{name: "stop-inside-gap", src: 3, pattern: Uniform, rate: 0.001, stop: 123_457},
		{name: "stop-lowered-while-armed", src: 3, pattern: Uniform, rate: 0.001,
			at: func(c uint64, g *Bernoulli) {
				if c == 200_000 {
					g.Stop = 200_001
				}
			}},
		{name: "prob-zero", src: 3, pattern: Uniform, rate: 0, wantEmpty: true},
		{name: "prob-one", src: 3, pattern: Uniform, rate: 5},
	}
	for _, tc := range cases {
		for _, busy := range []func(uint64) bool{idle, mixed} {
			mk := func() *Bernoulli {
				g := NewBernoulli(tc.src, 64, tc.pattern, tc.rate, 5, 11, classify)
				if tc.sizes != nil {
					g.SetSizes(*tc.sizes)
				}
				g.MeasureFrom, g.MeasureTo = 1000, 300_000
				g.Stop = tc.stop
				return g
			}
			ref, la := mk(), mk()
			want := polled(ref, cycles, tc.at)
			got := lookedAhead(la, cycles, busy, tc.at)
			if len(got) != len(want) {
				t.Fatalf("%s: look-ahead emitted %d packets, polling %d", tc.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: packet %d: look-ahead %+v, polling %+v", tc.name, i, got[i], want[i])
				}
			}
			if (len(want) == 0) != tc.wantEmpty {
				t.Fatalf("%s: %d packets emitted, wantEmpty=%v", tc.name, len(want), tc.wantEmpty)
			}
			// A generator that can emit nothing more (Stop reached, zero
			// rate) sleeps for good while polling keeps flipping; the
			// draw streams are comparable only while packets can follow.
			if la.Stop == 0 && la.thresh != 0 && !caughtUp(ref, la, cycles) {
				t.Fatalf("%s: look-ahead drew something polling does not", tc.name)
			}
		}
	}
}

func TestNextPendingContract(t *testing.T) {
	// Zero rate: never pending, and not one draw spent finding out.
	g := NewBernoulli(1, 64, Uniform, 0, 5, 7, nil)
	before := *g.rng
	if _, ok := g.NextPending(1); ok || *g.rng != before {
		t.Fatal("zero-rate generator must report exhausted without drawing")
	}

	// A hit is reported again, unchanged, until Generate consumes it, and
	// calls before it draw nothing.
	g = NewBernoulli(1, 64, Uniform, 0.001, 5, 7, nil)
	hit, ok := g.NextPending(1)
	if !ok || hit < 1 {
		t.Fatalf("NextPending(1) = %d, %v", hit, ok)
	}
	armed := *g.rng
	for c := uint64(1); c < hit; c++ {
		if g.Generate(c) != nil {
			t.Fatalf("packet at %d, before the announced cycle %d", c, hit)
		}
		if again, ok := g.NextPending(c + 1); !ok || again != hit {
			t.Fatalf("NextPending(%d) = %d, %v; want the armed %d", c+1, again, ok, hit)
		}
	}
	if *g.rng != armed {
		t.Fatal("calls inside the gap drew from the RNG")
	}
	if p := g.Generate(hit); p == nil || p.Src != 1 {
		t.Fatalf("no packet at the announced cycle %d: %+v", hit, p)
	}

	// Stop lowered below an armed hit retires it; Stop in the gap bounds
	// the scan; at or past Stop nothing is pending.
	g = NewBernoulli(1, 64, Uniform, 0.001, 5, 7, nil)
	hit, _ = g.NextPending(1)
	g.Stop = hit
	if _, ok := g.NextPending(2); ok {
		t.Fatal("armed hit at Stop must not be pending")
	}
	if g.Generate(hit) != nil {
		t.Fatal("generated at Stop")
	}
	g = NewBernoulli(1, 64, Uniform, 1e-9, 5, 7, nil)
	g.Stop = 100
	before = *g.rng
	if _, ok := g.NextPending(1); ok {
		t.Fatal("nothing can be pending when the scan reaches Stop")
	}
	want := sim.NewRNG(0)
	*want = before
	want.ScanBelow(0, 99)
	if *g.rng != *want {
		t.Fatal("a scan bounded by Stop must draw exactly the flips of the cycles before it")
	}
	if _, ok := g.NextPending(100); ok || *g.rng != *want {
		t.Fatal("NextPending at Stop must report exhausted without drawing")
	}

	// The horizon bounds one scan however small the rate.
	g = NewBernoulli(1, 64, Uniform, 1e-12, 5, 7, nil)
	if next, ok := g.NextPending(10); !ok || next != 10+lookahead {
		t.Fatalf("NextPending(10) = %d, %v; want the horizon %d", next, ok, 10+lookahead)
	}
}

// The horizon decides how often an idle source wakes to scan on and how
// far past the end of a run it draws, never what it emits: the flips are
// consumed in cycle order whatever the chunking.
func TestHorizonDoesNotMoveAPacket(t *testing.T) {
	emit := func(horizon uint64) (cycles []uint64, scans int) {
		g := NewBernoulli(5, 64, Uniform, 5e-4, 5, 22, nil) // p = 1e-4 per cycle
		for c := uint64(0); c < 100_000; {
			if p := g.Generate(c); p != nil {
				cycles = append(cycles, c)
			}
			next, ok := g.nextPending(c+1, horizon)
			if !ok || next <= c {
				t.Fatalf("horizon %d: nextPending(%d) = %d, %v", horizon, c+1, next, ok)
			}
			c, scans = next, scans+1
		}
		return cycles, scans
	}
	const far = lookahead << 6
	want, fewest := emit(far)
	if len(want) < 5 {
		t.Fatalf("only %d packets in 1e5 cycles at p = 1e-4", len(want))
	}
	for _, h := range []uint64{lookahead >> 2, lookahead} {
		got, scans := emit(h)
		if !slices.Equal(got, want) {
			t.Errorf("horizon %d: packets at %v, at horizon %d %v", h, got, far, want)
		}
		if scans <= fewest {
			t.Errorf("horizon %d: %d scans, no more than the %d at %d: the parameter is not the horizon", h, scans, fewest, far)
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
