package photonic

// Inventory counts the photonic devices a crossbar needs. The paper's
// introduction uses these numbers as its scalability argument: a 64x64
// SWMR crossbar needs 448 modulators, 7 waveguides and 28224
// photodetectors; at 1024x1024 that grows to ~7168 modulators, 112
// waveguides and ~7.3M photodetectors, "which is prohibitive".
type Inventory struct {
	Modulators     int
	Photodetectors int
	Waveguides     int
	// Rings is the total ring-resonator count (modulator rings plus
	// detector drop rings).
	Rings int
}

// Paper constants: each tile's channel is 7 wavelengths wide and each
// waveguide carries 64 DWDM wavelengths (these reproduce the paper's
// quoted counts exactly).
const (
	// LambdaPerChannel is the per-tile channel width in wavelengths.
	LambdaPerChannel = 7
	// LambdaPerWaveguide is the DWDM capacity of one waveguide.
	LambdaPerWaveguide = 64
)

// SWMRInventory returns the device counts for an n x n single-writer
// multiple-reader crossbar: each tile owns LambdaPerChannel modulators on
// its send channel, and every other tile taps that channel with a
// photodetector per wavelength.
func SWMRInventory(n int) Inventory {
	mods := LambdaPerChannel * n
	dets := mods * (n - 1)
	wg := (mods + LambdaPerWaveguide - 1) / LambdaPerWaveguide
	return Inventory{
		Modulators:     mods,
		Photodetectors: dets,
		Waveguides:     wg,
		Rings:          mods + dets,
	}
}

// MWSRInventory returns the device counts for an n x n multiple-writer
// single-reader crossbar (the OWN cluster and OptXB organization): each
// tile's home channel is written by the n-1 other tiles, each needing
// LambdaPerChannel modulators, and read once.
func MWSRInventory(n int) Inventory {
	mods := LambdaPerChannel * n * (n - 1)
	dets := LambdaPerChannel * n
	wg := (LambdaPerChannel*n + LambdaPerWaveguide - 1) / LambdaPerWaveguide
	return Inventory{
		Modulators:     mods,
		Photodetectors: dets,
		Waveguides:     wg,
		Rings:          mods + dets,
	}
}

// Add returns the element-wise sum of two inventories (e.g. four OWN
// clusters).
func (a Inventory) Add(b Inventory) Inventory {
	return Inventory{
		Modulators:     a.Modulators + b.Modulators,
		Photodetectors: a.Photodetectors + b.Photodetectors,
		Waveguides:     a.Waveguides + b.Waveguides,
		Rings:          a.Rings + b.Rings,
	}
}

// Scale multiplies every count by k.
func (a Inventory) Scale(k int) Inventory {
	return Inventory{
		Modulators:     a.Modulators * k,
		Photodetectors: a.Photodetectors * k,
		Waveguides:     a.Waveguides * k,
		Rings:          a.Rings * k,
	}
}
