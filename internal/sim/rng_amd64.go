package sim

// vector is decided once: the CPU has AVX2 and the operating system saves
// the YMM registers.
var vector = hasAVX2()

func hasAVX2() bool

// scan4 is ScanBelow4's kernel over the lanes' state transposed: s[j] is
// word j of every lane, one vector register.
//
//go:noescape
func scan4(s *[4][4]uint64, t *[4]uint64, max uint64) (n uint64, hits uint)
