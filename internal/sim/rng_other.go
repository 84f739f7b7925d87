//go:build !amd64

package sim

// vector is false: ScanBelow4 has a kernel on amd64 only.
const vector = false

func scan4(s *[4][4]uint64, t *[4]uint64, max uint64) (n uint64, hits uint) {
	panic("sim: no ScanBelow4 kernel on this architecture")
}
