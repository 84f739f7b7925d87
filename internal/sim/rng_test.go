package sim

import (
	"math"
	"strconv"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDecorrelated(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 16, 160000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(5)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Uint64()>>11 < Threshold(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate %v", p, got)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

// Intn's draws for a fixed seed, pinned: the 128-bit product (bits.Mul64)
// and Lemire's rejection decide every one of them, and the final state
// counts the rejected draws (n = 2^62+1 rejects about one in four). The
// pinned n reach 2^63-1, which only a 64-bit int holds; the draws a 32-bit
// int can ask for are pinned by TestIntnPinnedDrawsInt32.
func TestIntnPinnedDraws(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skipf("Intn(2^40) and up need a 64-bit int; this platform's is %d bits", strconv.IntSize)
	}
	ns := []uint64{1, 2, 3, 7, 1000, 1023, 1 << 40, 1<<62 + 1, 1<<63 - 1}
	want := []uint64{0, 1, 0, 1, 270, 112, 653410199806, 4075914582067951088, 2355552298378735060,
		0, 0, 0, 3, 696, 990, 399932851303, 3548754372210566565, 194196503507864730,
		0, 1, 1, 0, 694, 821, 475120694143, 384035933239231261, 1209963158883977708}
	end := [4]uint64{0xbdbc4239462229e3, 0x77f8aff5d886d28b, 0x10372fc0898b1ba8, 0x9b671d5f833d2279}
	checkIntnDraws(t, ns, want, end)
}

// TestIntnPinnedDrawsInt32 pins draws whose n fits a 32-bit int, so every
// platform checks Intn against the same numbers.
func TestIntnPinnedDrawsInt32(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 1000, 1023, 1<<30 + 1, 1<<31 - 1}
	want := []uint64{0, 1, 0, 1, 270, 112, 638095898, 1897995630,
		0, 0, 0, 0, 471, 712, 1039664673, 781118849,
		0, 0, 0, 6, 649, 59, 745272781, 1723495341}
	end := [4]uint64{0xf1743749da32dd04, 0xaea4349876e93848, 0xa0036c646113c51c, 0xf2cedc3969e91427}
	checkIntnDraws(t, ns, want, end)
}

func checkIntnDraws(t *testing.T, ns, want []uint64, end [4]uint64) {
	t.Helper()
	r := NewRNG(2018)
	for i, w := range want {
		n := ns[i%len(ns)]
		if got := r.Intn(int(n)); uint64(got) != w {
			t.Fatalf("draw %d: Intn(%d) = %d, want %d", i, n, got, w)
		}
	}
	if r.s != end {
		t.Fatalf("state after the pinned draws %#x, want %#x", r.s, end)
	}
}

// thresholdProbs covers both ends of [0, 1], a typical injection
// probability, a non-dyadic fraction, and values whose p·2^53 is an
// integer (where ceil must not round up).
var thresholdProbs = []float64{
	0, 0x1p-53, 0.0002, 1.0 / 3, 3 * 0x1p-53, 0.5, 0.75, 1 - 0x1p-53, 1,
}

func TestThresholdMatchesFloat64Compare(t *testing.T) {
	for _, p := range thresholdProbs {
		th := Threshold(p)
		// The boundary itself, exactly: the draws on either side of the
		// threshold must fall the way the float compare puts them.
		for _, u := range []uint64{0, th - 1, th, th + 1, 1<<53 - 1} {
			if u >= 1<<53 { // th-1 at th == 0, th and th+1 at th == 2^53
				continue
			}
			if asFloat, asInt := float64(u)/(1<<53) < p, u < th; asFloat != asInt {
				t.Fatalf("p=%v u=%d: float compare %v, threshold compare %v", p, u, asFloat, asInt)
			}
		}
		a, b := NewRNG(99), NewRNG(99)
		for i := 0; i < 1_000_000; i++ {
			if asFloat, asInt := a.Float64() < p, b.Uint64()>>11 < th; asFloat != asInt {
				t.Fatalf("p=%v draw %d: Float64()<p is %v, the threshold compare is %v", p, i, asFloat, asInt)
			}
		}
	}
	if Threshold(-1) != 0 || Threshold(math.NaN()) != 0 || Threshold(2) != 1<<53 {
		t.Fatal("Threshold must clamp outside [0, 1] the way Float64()<p decides")
	}
}
