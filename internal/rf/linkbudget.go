// Package rf models the paper's Section IV wireless feasibility study:
// the on-chip OOK link budget at 90 GHz / 32 Gb/s (Figure 3) and
// behavioral models of the 65-nm CMOS transceiver blocks — Colpitts
// oscillator (Figure 4a), class-AB power amplifier (Figure 4b) and
// wideband LNA (Figure 4c). The models reproduce the macroscopic figures
// the paper reports (required TX power vs distance, oscillator phase
// noise, P1dB, gain/bandwidth), not transistor-level waveforms.
package rf

import "math"

// SpeedOfLight in mm/ns units times 1e9 gives mm/s; keep SI (m/s).
const speedOfLight = 2.99792458e8

// LinkBudget holds the OOK receiver-chain assumptions used in Figure 3.
// DefaultLinkBudget reproduces the paper's anchor: >= 4 dBm transmit
// power for 50 mm at 32 Gb/s, 90 GHz, isotropic antennas.
type LinkBudget struct {
	// NoiseFigureDB is the receiver noise figure.
	NoiseFigureDB Decibels
	// SNRRequiredDB is the SNR needed for the target BER with
	// non-coherent OOK.
	SNRRequiredDB Decibels
	// ImplMarginDB lumps implementation losses (envelope detector,
	// matching, process margin).
	ImplMarginDB Decibels
}

// DefaultLinkBudget returns the calibrated chain.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{NoiseFigureDB: 8, SNRRequiredDB: 12, ImplMarginDB: 8}
}

// FSPLdB returns free-space path loss for distance mm at freq GHz.
func FSPLdB(distMM, freqGHz float64) Decibels {
	d := distMM / 1000.0
	f := freqGHz * 1e9
	return Decibels(20 * math.Log10(4*math.Pi*d*f/speedOfLight))
}

// SensitivityDBm returns the receiver sensitivity for data rate
// rateGbps: thermal floor + bandwidth + NF + required SNR (OOK occupies
// roughly its bit rate in bandwidth).
func (lb LinkBudget) SensitivityDBm(rateGbps float64) DBm {
	bwHz := rateGbps * 1e9
	floor := DBm(-174 + float64(10*math.Log10(bwHz)))
	return floor.PlusDB(lb.NoiseFigureDB).PlusDB(lb.SNRRequiredDB)
}

// RequiredTxDBm returns the transmit power needed to close the link over
// distMM at freqGHz and rateGbps with the given total antenna directivity
// (TX + RX, dBi).
func (lb LinkBudget) RequiredTxDBm(distMM, freqGHz, rateGbps float64, directivityDBi Decibels) DBm {
	return lb.SensitivityDBm(rateGbps).
		PlusDB(FSPLdB(distMM, freqGHz)).
		MinusDB(directivityDBi).
		PlusDB(lb.ImplMarginDB)
}

// Figure3Point is one sample of the link-budget sweep.
type Figure3Point struct {
	DistMM        float64
	DirectivityDB Decibels
	RequiredDBm   DBm
}

// Figure3 sweeps required TX power versus distance for the given antenna
// directivities at the paper's operating point (32 Gb/s, 90 GHz).
func Figure3(lb LinkBudget, directivities []Decibels) []Figure3Point {
	var out []Figure3Point
	for _, g := range directivities {
		for d := 5.0; d <= 50.0; d += 5 {
			out = append(out, Figure3Point{
				DistMM:        d,
				DirectivityDB: g,
				RequiredDBm:   lb.RequiredTxDBm(d, 90, 32, g),
			})
		}
	}
	return out
}

// MaxRangeMM returns the largest distance (searched to 200 mm) closable
// with the given TX power.
func (lb LinkBudget) MaxRangeMM(txDBm DBm, freqGHz, rateGbps float64, directivityDBi Decibels) float64 {
	lo, hi := 0.1, 200.0
	if lb.RequiredTxDBm(hi, freqGHz, rateGbps, directivityDBi) <= txDBm {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if lb.RequiredTxDBm(mid, freqGHz, rateGbps, directivityDBi) <= txDBm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
