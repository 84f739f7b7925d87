package traffic

import (
	"fmt"
	"math"
	"math/big"
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
// starts mid-sleep wakes it early, exactly like a spurious wake.
func engineOrder(gens []*Bernoulli, cycles uint64, busy func(i int, c uint64) bool) [][]emitted {
	out := make([][]emitted, len(gens))
	asleep := make([]bool, len(gens))
	forGood := make([]bool, len(gens))
	wake := make([]uint64, len(gens))
	for c := uint64(0); c < cycles; c++ {
		for i, g := range gens {
			if asleep[i] && !busy(i, c) && (forGood[i] || c < wake[i]) {
				continue
			}
			out[i] = record(out[i], g, c)
			if asleep[i] = !busy(i, c); asleep[i] {
				next, ok := g.NextPending(c + 1)
				if ok && next <= c {
					panic("NextPending went backwards")
				}
				wake[i], forGood[i] = next, !ok
			}
		}
	}
	return out
}

func sameEmissions(t *testing.T, name string, got, want []emitted) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d packets, polling %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d: %+v, polling %+v", name, i, got[i], want[i])
		}
	}
}

// A source that sleeps until NextPending's cycle, woken early by busy
// stretches, emits what a source that polls every cycle emits, and so do
// the generators NewBernoullis allocates together.
func TestLookAheadEmitsWhatPollingEmits(t *testing.T) {
	const cycles = 400_000
	idle := func(int, uint64) bool { return false }
	// Busy for 40 cycles out of every 1000, and for one long stretch.
	mixed := func(_ int, c uint64) bool { return c%1000 < 40 || (c > 150_000 && c < 170_000) }
	classify := func(src, dst int) int { return (src + dst) % 3 }

	cases := []struct {
		name      string
		src       int
		pattern   Pattern
		rate      float64
		wantEmpty bool
	}{
		{name: "uniform", src: 3, pattern: Uniform, rate: 0.001},
		{name: "uniform-busy-rate", src: 3, pattern: Uniform, rate: 0.5},
		{name: "hotspot", src: 7, pattern: Hotspot, rate: 0.002},
		{name: "bitreversal", src: 1, pattern: BitReversal, rate: 0.002},
		// Source 0 is a fixed point of bit reversal: every arrival draws
		// nothing further and builds no packet.
		{name: "bitreversal-fixed-point", src: 0, pattern: BitReversal, rate: 0.002, wantEmpty: true},
		// Mean gap 50 000 cycles.
		{name: "rare", src: 2, pattern: Uniform, rate: 0.0001},
		{name: "prob-zero", src: 3, pattern: Uniform, rate: 0, wantEmpty: true},
		{name: "prob-one", src: 3, pattern: Uniform, rate: 5},
	}
	for _, tc := range cases {
		mk := func() *Bernoulli {
			g := NewBernoulli(tc.src, 64, tc.pattern, tc.rate, 5, 11, classify)
			g.MeasureFrom, g.MeasureTo = 1000, 300_000
			return g
		}
		want := polled(mk(), cycles)
		if (len(want) == 0) != tc.wantEmpty {
			t.Fatalf("%s: %d packets emitted, wantEmpty=%v", tc.name, len(want), tc.wantEmpty)
		}
		for _, busy := range []func(int, uint64) bool{idle, mixed} {
			got := engineOrder([]*Bernoulli{mk()}, cycles, busy)
			sameEmissions(t, tc.name, got[0], want)
		}
		gens := NewBernoullis(64, tc.pattern, tc.rate, 5, 11, classify)
		g := &gens[tc.src]
		g.MeasureFrom, g.MeasureTo = 1000, 300_000
		sameEmissions(t, tc.name+"/NewBernoullis", engineOrder([]*Bernoulli{g}, cycles, mixed)[0], want)
	}
}

// The draws follow the documented order: the first gap at the first cycle
// asked about, then at each arrival c the destination and the gap
// counted from c+1.
func TestDrawOrder(t *testing.T) {
	g := NewBernoulli(5, 64, Uniform, 0.05, 5, 3, nil)
	rng := g.rng
	const first = 7
	var want []emitted
	due := first + g.gaps.draw(&rng)
	for len(want) < 200 {
		dst := Dest(Uniform, 5, 64, &rng)
		want = append(want, emitted{cycle: due, id: 5<<40 | uint64(len(want)+1), dst: dst, numFlits: 5})
		due += 1 + g.gaps.draw(&rng)
	}
	var got []emitted
	for c := uint64(first); len(got) < len(want); c++ {
		got = record(got, g, c)
	}
	sameEmissions(t, "draw order", got, want)
	if g.rng != rng {
		t.Fatal("the generator drew more than the documented order")
	}
}

func TestNextPendingContract(t *testing.T) {
	// Zero rate: never pending, and not one draw spent finding out.
	g := NewBernoulli(1, 64, Uniform, 0, 5, 7, nil)
	before := g.rng
	if _, ok := g.NextPending(1); ok || g.rng != before || g.Generate(1) != nil {
		t.Fatal("zero-rate generator must report exhausted without drawing")
	}

	// The first call draws the first gap, counted from from.
	g = NewBernoulli(1, 64, Uniform, 0.02, 5, 7, nil)
	rng := g.rng
	first := 10 + g.gaps.draw(&rng)
	hit, ok := g.NextPending(10)
	if !ok || hit != first || g.rng != rng {
		t.Fatalf("first NextPending(10) = %d, %v; want %d, one gap drawn", hit, ok, first)
	}

	// An arrival is reported again, unchanged, until Generate consumes it,
	// and calls before it draw nothing.
	for c := uint64(10); c < hit; c++ {
		if g.Generate(c) != nil {
			t.Fatalf("packet at %d, before the announced cycle %d", c, hit)
		}
		if again, ok := g.NextPending(c + 1); !ok || again != hit {
			t.Fatalf("NextPending(%d) = %d, %v; want the announced %d", c+1, again, ok, hit)
		}
	}
	if g.rng != rng {
		t.Fatal("calls before the arrival drew from the RNG")
	}
	if p := g.Generate(hit); p == nil || p.Src != 1 {
		t.Fatalf("no packet at the announced cycle %d: %+v", hit, p)
	}
	if next, ok := g.NextPending(hit + 1); !ok || next <= hit {
		t.Fatalf("NextPending(%d) after the arrival = %d, %v", hit+1, next, ok)
	}

	// Probability one: every cycle is an arrival, and no digit is drawn.
	g = NewBernoulli(1, 64, Uniform, 5, 5, 7, nil)
	for c := uint64(3); c < 100; c++ {
		if next, ok := g.NextPending(c); !ok || next != c || g.Generate(c) == nil {
			t.Fatalf("rate 1: NextPending(%d) = %d, %v, or no packet", c, next, ok)
		}
	}
}

// Asking past an arrival the generator never returned is a scheduling bug
// in the caller; it panics and names the source instead of dropping the
// packet.
func TestSkippedArrivalPanics(t *testing.T) {
	for _, ask := range []func(g *Bernoulli, c uint64){
		func(g *Bernoulli, c uint64) { g.Generate(c) },
		func(g *Bernoulli, c uint64) { g.NextPending(c) },
	} {
		g := NewBernoulli(3, 64, Uniform, 0.05, 5, 1, nil)
		due, _ := g.NextPending(0)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "source 3") {
					t.Fatalf("asking past cycle %d panicked with %q, want the source named", due, msg)
				}
			}()
			ask(g, due+1)
		}()
	}
}

// How far ahead an idle source sleeps decides how often it wakes, never
// what it emits or how far past the end of a run it draws: a source that
// wakes at most `horizon` cycles after its last tick, asking NextPending
// each time, emits the cycles a polled source emits and ends the run with
// the same RNG state (one gap drawn past its last packet).
func TestHorizonDoesNotMoveAPacket(t *testing.T) {
	const cycles = 1 << 18
	mk := func() *Bernoulli { return NewBernoulli(5, 64, Uniform, 5e-4, 5, 22, nil) } // p = 1e-4 per cycle
	ref := mk()
	want := polled(ref, cycles)
	if len(want) < 5 {
		t.Fatalf("only %d packets in 2^18 cycles at p = 1e-4", len(want))
	}
	for _, horizon := range []uint64{1, 1 << 8, 1 << 10, 1 << 16} {
		g := mk()
		var got []emitted
		for c := uint64(0); c < cycles; {
			got = record(got, g, c)
			next, ok := g.NextPending(c + 1)
			if !ok {
				t.Fatalf("horizon %d: a positive rate reported no next packet", horizon)
			}
			c = min(next, c+horizon)
		}
		sameEmissions(t, fmt.Sprintf("horizon %d", horizon), got, want)
		if g.rng != ref.rng {
			t.Fatalf("horizon %d: ends the run with another RNG state than polling", horizon)
		}
	}
}

// A run's generators are allocated together: one slice and one gap table
// whatever the core count.
func TestNewBernoullisAllocateTogether(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() { NewBernoullis(1024, Uniform, 0.01, 5, 1, nil) })
	if allocs != 2 {
		t.Fatalf("NewBernoullis(1024) allocates %v times, want 2", allocs)
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
	NewBernoulli(0, 64, Uniform, 5, 5, 1, nil) // probability exactly 1 is legal
}

// chi2Crit is the chi-square value exceeded with probability about 1e-6
// at df degrees of freedom (Wilson-Hilferty).
func chi2Crit(df int) float64 {
	const z = 4.753
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+z*math.Sqrt(v), 3)
}

// chi2 returns the statistic and degrees of freedom of observed against
// expected counts, merging neighbouring bins until each expects at least 5.
func chi2(observed, expected []float64) (stat float64, df int) {
	var o, e []float64
	var oAcc, eAcc float64
	for i := range expected {
		oAcc, eAcc = oAcc+observed[i], eAcc+expected[i]
		if eAcc >= 5 {
			o, e = append(o, oAcc), append(e, eAcc)
			oAcc, eAcc = 0, 0
		}
	}
	o[len(o)-1] += oAcc
	e[len(e)-1] += eAcc
	for i := range e {
		stat += (o[i] - e[i]) * (o[i] - e[i]) / e[i]
	}
	return stat, len(e) - 1
}

// The gaps follow P(G = k) = (1-q)^k·q, and the arrivals they place fall
// Binomial(1024, q) per 1 024-cycle window, from a rate far below any run
// to one arrival every other cycle.
func TestGapDistribution(t *testing.T) {
	const draws = 1_000_000
	for i, p := range []float64{0x1p-30, 1e-4, 1.0 / 64, 0.5} {
		th := sim.Threshold(p)
		q := float64(th) / (1 << 53) // the process's q, exactly
		g := newGapTable(th)
		rng := sim.NewRNG(uint64(i) + 1)
		gaps := make([]uint64, draws)
		sum := 0.0
		for j := range gaps {
			gaps[j] = g.draw(rng)
			sum += float64(gaps[j])
		}

		// The mean, within 5 sigma of (1-q)/q.
		mean, want := sum/draws, (1-q)/q
		if sigma := math.Sqrt((1 - q) / (q * q) / draws); math.Abs(mean-want) > 5*sigma {
			t.Errorf("q=%g: mean gap %.6g, want %.6g ± 5·%.3g", q, mean, want, sigma)
		}

		// The distribution, over 40 bins of about equal probability: one
		// per small k where q is large, and the tail from the last.
		survival := func(k uint64) float64 { return math.Exp(float64(k) * math.Log1p(-q)) }
		var edges []uint64 // bin b is [edges[b], edges[b+1]), the last one open
		for b := 0; b < 40; b++ {
			k := uint64(math.Ceil(math.Log(1-float64(b)/40) / math.Log1p(-q)))
			if len(edges) == 0 || k > edges[len(edges)-1] {
				edges = append(edges, k)
			}
		}
		observed, expected := make([]float64, len(edges)), make([]float64, len(edges))
		for b, lo := range edges {
			expected[b] = survival(lo) * draws
			if b+1 < len(edges) {
				expected[b] -= survival(edges[b+1]) * draws
			}
		}
		for _, gap := range gaps {
			b := len(edges) - 1
			for gap < edges[b] {
				b--
			}
			observed[b]++
		}
		if stat, df := chi2(observed, expected); stat > chi2Crit(df) {
			t.Errorf("q=%g: gap chi-square %.1f over %d degrees of freedom, above %.1f", q, stat, df, chi2Crit(df))
		}

		// Arrivals per complete 1 024-cycle window against
		// Binomial(1024, q); a window with none is counted by difference.
		const window = 1024
		counts := make([]float64, window+1)
		arrival, w, inWindow, busy := uint64(0), uint64(0), 0, 0.0
		for j, gap := range gaps {
			if j > 0 {
				arrival++
			}
			arrival += gap
			if arrival/window != w {
				if inWindow > 0 {
					counts[inWindow]++
					busy++
				}
				w, inWindow = arrival/window, 0
			}
			inWindow++
		}
		windows := float64(w) // [0, w): the last window is cut off
		counts[0] = windows - busy
		binomial := make([]float64, window+1)
		for k := range binomial {
			lc, _ := math.Lgamma(window + 1)
			lk, _ := math.Lgamma(float64(k) + 1)
			lr, _ := math.Lgamma(float64(window-k) + 1)
			binomial[k] = windows * math.Exp(lc-lk-lr+float64(k)*math.Log(q)+float64(window-k)*math.Log1p(-q))
		}
		if stat, df := chi2(counts, binomial); df < 1 || stat > chi2Crit(df) {
			t.Errorf("q=%g: arrivals per window chi-square %.1f over %d degrees of freedom, above %.1f", q, stat, df, chi2Crit(df))
		}
	}
}

// For every threshold the table is finite and non-increasing, its first
// digit is the closed form r/(1+r) at r = 1-q, and the chance of a zero
// gap, the product of the digits' chances of 0, is q within the error of
// the fixed point.
func FuzzGapTable(f *testing.F) {
	for _, th := range []uint64{1, 1 << 23, sim.Threshold(1e-4), 1<<53 - 1, 1 << 53} {
		f.Add(th)
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	f.Fuzz(func(t *testing.T, th uint64) {
		th = 1 + th%(1<<53) // any threshold in [1, 2^53]
		g := newGapTable(th)
		if len(g.t) >= 64 {
			t.Fatalf("T=%d: %d digits", th, len(g.t))
		}
		for j := 1; j < len(g.t); j++ {
			if g.t[j] > g.t[j-1] {
				t.Fatalf("T=%d: digit %d's chance %d above digit %d's %d", th, j, g.t[j], j-1, g.t[j-1])
			}
		}

		// t_0 = floor(2^64·(1-q)/(2-q)) = floor(2^64·(2^53-T)/(2^54-T)).
		num := new(big.Int).Mul(two64, new(big.Int).SetUint64(1<<53-th))
		t0 := num.Div(num, new(big.Int).SetUint64(1<<54-th)).Uint64()
		got := uint64(0)
		if len(g.t) > 0 {
			got = g.t[0]
		}
		if got != t0 && got+1 != t0 && got != t0+1 {
			t.Fatalf("T=%d: t_0 = %d, closed form %d", th, got, t0)
		}

		// Each digit's chance sits at most 2 units of 2^-64 below
		// r_j/(1+r_j) at the squarings' r_j (the floor and the dropped low
		// bit), which moves P(G = 0) by at most 2(1+r_j)·q <= 4q units; the
		// squarings truncate r_j, a drift whose weight on P(G = 0) stays
		// under 2 units whatever q.
		tol := (4*float64(len(g.t))*float64(th)/(1<<53) + 2) * 0x1p-64
		p0 := new(big.Float).SetPrec(256).SetInt64(1)
		for _, tj := range g.t {
			keep := new(big.Float).SetPrec(256).SetInt(new(big.Int).Sub(two64, new(big.Int).SetUint64(tj)))
			p0.Mul(p0, keep.Quo(keep, new(big.Float).SetInt(two64)))
		}
		q := new(big.Float).SetPrec(256).Quo(new(big.Float).SetUint64(th), new(big.Float).SetUint64(1<<53))
		diff, _ := new(big.Float).Sub(p0, q).Float64()
		if math.Abs(diff) > tol {
			t.Fatalf("T=%d: P(G=0) - q = %g = %.2f·2^-64", th, diff, diff/0x1p-64)
		}
	})
}
