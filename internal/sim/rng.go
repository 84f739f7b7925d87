package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Every traffic source owns its own RNG seeded from the run
// seed and its node identifier, so simulations are reproducible regardless
// of component registration order or host parallelism.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds (including
// adjacent integers) yield decorrelated streams because the seed is first
// diffused through SplitMix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 seeding, as recommended by the xoshiro authors.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold converts a probability into the integer t for which Below
// and ScanBelow decide draw for draw as Float64() < p does: Float64 is a
// 53-bit integer u over 2^53 and p·2^53 is exact in float64, so
// u/2^53 < p ⇔ u < ceil(p·2^53) with no rounding on either side.
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below consumes one draw and reports whether it falls under t: with
// t = Threshold(p) it is true with probability p.
func (r *RNG) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// ScanBelow consumes draws until one falls under t or max are consumed,
// and returns how many it consumed and whether the last one hit. The
// generator ends up exactly where that many Below calls would leave it;
// the state lives in locals meanwhile, which is what makes looking ahead
// over an idle source's coin flips cheap.
func (r *RNG) ScanBelow(t, max uint64) (n uint64, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for n < max {
		u := rotl(s1*5, 7) * 9
		x := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= x
		s3 = rotl(s3, 45)
		n++
		if u>>11 < t {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n, hit
}

// ScanBelow4 is ScanBelow over four generators in lockstep, lane k drawing
// from r[k] against t[k]: it consumes the same number n of draws from each,
// stopping after the first draw on which any lane falls under its
// threshold or after max draws, and returns n and the bitmask of the lanes
// whose n-th draw hit. Every lane ends exactly where n calls of Below
// would leave it. Where VectorScan is true it is one AVX2 kernel, about twice
// the flips per second of ScanBelow; elsewhere it is scalar scans, slower
// than calling ScanBelow once per generator.
func ScanBelow4(r *[4]*RNG, t *[4]uint64, max uint64) (n uint64, hits uint) {
	if !vector {
		return scanBelow4(r, t, max)
	}
	var s [4][4]uint64 // s[j] holds word j of every lane: one vector register
	for k, g := range r {
		s[0][k], s[1][k], s[2][k], s[3][k] = g.s[0], g.s[1], g.s[2], g.s[3]
	}
	n, hits = scan4(&s, t, max)
	for k, g := range r {
		g.s = [4]uint64{s[0][k], s[1][k], s[2][k], s[3][k]}
	}
	return n, hits
}

// VectorScan reports whether ScanBelow4 runs as its AVX2 kernel on this
// host (amd64 with AVX2 enabled by the operating system).
func VectorScan() bool { return vector }

// scanBelow4 is ScanBelow4 by scalar scans: n is the earliest first hit
// (scanned on copies), then every lane draws exactly n.
func scanBelow4(r *[4]*RNG, t *[4]uint64, max uint64) (n uint64, hits uint) {
	n = max
	for k, g := range r {
		c := *g
		if m, hit := c.ScanBelow(t[k], n); hit {
			n = m
		}
	}
	for k, g := range r {
		if _, hit := g.ScanBelow(t[k], n); hit {
			hits |= 1 << k
		}
	}
	return n, hits
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
