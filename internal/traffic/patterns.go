// Package traffic implements the synthetic traffic patterns of the paper's
// evaluation — uniform random (UN), bit reversal (BR), matrix transpose
// (MT), perfect shuffle (PS) and neighbor (NBR) — and the Bernoulli
// injection process that offers load to the network.
package traffic

import (
	"fmt"
	"math/bits"

	"ownsim/internal/sim"
)

// Pattern names a destination-selection rule over N cores.
type Pattern int

const (
	// Uniform sends each packet to a destination drawn uniformly at
	// random from all cores other than the source.
	Uniform Pattern = iota
	// BitReversal sends from source s to the core whose index is the
	// bit-reversal of s over log2(N) bits.
	BitReversal
	// Transpose treats cores as a sqrt(N) x sqrt(N) matrix and sends
	// (r, c) -> (c, r).
	Transpose
	// Shuffle sends s to rotate-left-by-1(s) over log2(N) bits (the
	// perfect-shuffle permutation).
	Shuffle
	// Neighbor sends to the adjacent core in the same row of the
	// sqrt(N) x sqrt(N) layout, with wraparound.
	Neighbor
	// Hotspot sends a fraction of traffic to a single hot core and the
	// rest uniformly; it is not part of the paper's headline figures but
	// is used by the extension benchmarks.
	Hotspot
)

var patternNames = map[Pattern]string{
	Uniform:     "uniform",
	BitReversal: "bitreversal",
	Transpose:   "transpose",
	Shuffle:     "shuffle",
	Neighbor:    "neighbor",
	Hotspot:     "hotspot",
}

// String implements fmt.Stringer (paper abbreviations: UN, BR, MT, PS, NBR).
func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern resolves a pattern name as used on tool command lines.
func ParsePattern(s string) (Pattern, error) {
	for p, name := range patternNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown pattern %q (want uniform|bitreversal|transpose|shuffle|neighbor|hotspot)", s)
}

// AllPaperPatterns lists the five patterns evaluated in the paper's
// Figure 7(a), in presentation order.
func AllPaperPatterns() []Pattern {
	return []Pattern{Uniform, BitReversal, Transpose, Shuffle, Neighbor}
}

// Dest computes the destination for a packet from src under pattern p over
// n cores. rng is consulted only by randomized patterns. The result is
// always in [0, n) and, for permutation patterns, deterministic.
//
// n must be a power of four for Transpose/Neighbor (square layouts) and a
// power of two for BitReversal/Shuffle; both hold for the paper's 256- and
// 1024-core configurations.
func Dest(p Pattern, src, n int, rng *sim.RNG) int {
	switch p {
	case Uniform:
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	case BitReversal:
		b := bits.TrailingZeros(uint(n))
		return int(bits.Reverse(uint(src)) >> (bits.UintSize - b))
	case Transpose:
		side := isqrt(n)
		r, c := src/side, src%side
		return c*side + r
	case Shuffle:
		b := bits.TrailingZeros(uint(n))
		return ((src << 1) | (src >> (b - 1))) & (n - 1)
	case Neighbor:
		side := isqrt(n)
		r, c := src/side, src%side
		return r*side + (c+1)%side
	case Hotspot:
		// 20% of traffic to core 0, the rest uniform.
		if rng.Float64() < 0.20 {
			if src != 0 {
				return 0
			}
		}
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	}
	panic(fmt.Sprintf("traffic: unknown pattern %d", int(p)))
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	if r*r != n {
		panic(fmt.Sprintf("traffic: %d is not a perfect square", n))
	}
	return r
}
