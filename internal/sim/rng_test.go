package sim

import (
	"math"
	"strconv"
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

// want4 is what ScanBelow4 must do, from four scalar ScanBelow calls: n is
// the earliest first hit (or max), the hits are the lanes that first hit
// there, and every lane ends where n Below calls leave it.
func want4(r [4]RNG, th [4]uint64, max uint64) (n uint64, hits uint, end [4]RNG) {
	n = max
	var first [4]uint64
	var hit [4]bool
	for k := range r {
		c := r[k]
		if first[k], hit[k] = c.ScanBelow(th[k], max); hit[k] && first[k] < n {
			n = first[k]
		}
	}
	for k := range r {
		if hit[k] && first[k] == n {
			hits |= 1 << k
		}
		end[k] = r[k]
		for i := uint64(0); i < n; i++ {
			end[k].Below(th[k])
		}
	}
	return n, hits, end
}

// scans4 are the two ScanBelow4 implementations: the one this host runs
// (the AVX2 kernel where VectorScan holds) and the scalar one.
var scans4 = []struct {
	name string
	scan func(*[4]*RNG, *[4]uint64, uint64) (uint64, uint)
}{{"ScanBelow4", ScanBelow4}, {"scanBelow4", scanBelow4}}

// check4 runs both implementations from lanes and compares each with want4.
func check4(t *testing.T, lanes [4]RNG, th [4]uint64, max uint64) {
	t.Helper()
	wantN, wantHits, wantEnd := want4(lanes, th, max)
	for _, s := range scans4 {
		got := lanes
		n, hits := s.scan(&[4]*RNG{&got[0], &got[1], &got[2], &got[3]}, &th, max)
		if n != wantN || hits != wantHits || got != wantEnd {
			t.Fatalf("%s(th=%v, max=%d) = (%d, %04b), want (%d, %04b); states equal %v",
				s.name, th, max, n, hits, wantN, wantHits, got == wantEnd)
		}
	}
}

// ScanBelow4 must be four scalar scans in lockstep, lane by lane: same n,
// same hit mask, same states, call after call, with max 0 and 1, a hit on
// the last allowed draw and one just past it, at p = 0, p = 1 and mixed.
func TestScanBelow4MatchesScanBelow(t *testing.T) {
	t.Logf("VectorScan: %v", VectorScan())
	p := Threshold
	for _, th := range [][4]uint64{
		{0, 0, 0, 0},
		{1 << 53, 1 << 53, 1 << 53, 1 << 53},
		{0, p(0.3), 0, 1 << 53},
		{p(0.0002), p(0.001), p(0.01), p(1.0 / 3)},
		{p(0.0005), 0, 0, 0},
		{0, 0, 0, p(0.002)},
		{p(0.5), p(0.75), p(1 - 0x1p-53), p(0x1p-53)},
	} {
		var lanes [4]RNG
		for k := range lanes {
			lanes[k] = *NewRNG(uint64(17 + k))
		}
		pick := NewRNG(3)
		for call := 0; call < 1400; call++ {
			next, _, _ := want4(lanes, th, 1<<12)
			max := []uint64{0, 1, 2, next, next - 1, next + 1, 1 + pick.Uint64()%3000}[call%7]
			if max > 1<<12 {
				max = 1 << 12
			}
			check4(t, lanes, th, max)
			_, _, lanes = want4(lanes, th, max)
		}
	}
}

// FuzzScanBelow4 checks ScanBelow4 against four scalar scans from any
// four seeds and thresholds (reduced to [0, 2^53], the range Threshold
// returns) and any max below 2^13.
func FuzzScanBelow4(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(0), uint64(1<<53), uint64(1<<40), uint64(1<<44), uint64(100))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3, t0, t1, t2, t3, max uint64) {
		var lanes [4]RNG
		for k, s := range [4]uint64{s0, s1, s2, s3} {
			lanes[k] = *NewRNG(s)
		}
		th := [4]uint64{t0, t1, t2, t3}
		for k := range th {
			th[k] %= 1<<53 + 1
		}
		check4(t, lanes, th, max%(1<<13))
	})
}

// The flips of idle sources: ns/op is per flip, p = 1e-4, as an
// own1024-low source draws.
func BenchmarkScanBelow(b *testing.B) {
	r, th := NewRNG(1), Threshold(1e-4)
	for n := uint64(0); n < uint64(b.N); {
		m, _ := r.ScanBelow(th, uint64(b.N)-n)
		n += m
	}
}

func BenchmarkScanBelow4(b *testing.B) {
	for _, s := range scans4 {
		b.Run(s.name, func(b *testing.B) {
			lanes := [4]*RNG{NewRNG(1), NewRNG(2), NewRNG(3), NewRNG(4)}
			th := Threshold(1e-4)
			ths := [4]uint64{th, th, th, th}
			for n := uint64(0); 4*n < uint64(b.N); {
				m, _ := s.scan(&lanes, &ths, (uint64(b.N)+3)/4-n)
				n += m
			}
		})
	}
}
