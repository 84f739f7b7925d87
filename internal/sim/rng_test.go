package sim

import (
	"math"
	"testing"
	"testing/quick"
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
		if r.Below(Threshold(p)) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate %v", p, got)
	}
}

func TestRNGPermIsBijection(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%64) + 1
		r := NewRNG(seed)
		p := make([]int, n)
		r.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
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
			if asFloat, asInt := a.Float64() < p, b.Below(th); asFloat != asInt {
				t.Fatalf("p=%v draw %d: Float64()<p is %v, Below is %v", p, i, asFloat, asInt)
			}
		}
	}
	if Threshold(-1) != 0 || Threshold(math.NaN()) != 0 || Threshold(2) != 1<<53 {
		t.Fatal("Threshold must clamp outside [0, 1] the way Float64()<p decides")
	}
}

// ScanBelow must be indistinguishable from calling Below until the first
// hit: same count, same verdict, same generator state afterwards.
func TestScanBelowMatchesBelowCalls(t *testing.T) {
	for _, p := range thresholdProbs {
		th := Threshold(p)
		a, b := NewRNG(5), NewRNG(5)
		for drawn := uint64(0); drawn < 1_000_000; {
			limit := 1 + a.Uint64()%5000
			b.Uint64()
			n, hit := a.ScanBelow(th, limit)
			var wantN uint64
			wantHit := false
			for wantN < limit && !wantHit {
				wantHit = b.Below(th)
				wantN++
			}
			if n != wantN || hit != wantHit || a.s != b.s {
				t.Fatalf("p=%v after %d draws: scan (%d,%v), Below loop (%d,%v), states equal %v",
					p, drawn, n, hit, wantN, wantHit, a.s == b.s)
			}
			drawn += n
		}
	}
	r := NewRNG(1)
	before := r.s
	if n, hit := r.ScanBelow(1<<53, 0); n != 0 || hit || r.s != before {
		t.Fatal("a zero-length scan must draw nothing")
	}
}
