package rf

import (
	"math"

	"ownsim/internal/dsp"
)

// PowerAmp is a behavioral one-stage class-AB power amplifier after the
// paper's 65-nm design: 3.5 dB peak gain at 90 GHz, roughly 20 GHz of
// bandwidth above 2 dB gain, ~5 dBm output 1-dB compression point, 7 dBm
// saturated output, 14 mW DC dissipation at a 1 V supply.
type PowerAmp struct {
	// GainDB is the small-signal peak gain.
	GainDB float64
	// CenterGHz is the gain peak frequency.
	CenterGHz float64
	// RollGHz sets the parabolic gain roll-off scale: gain drops by
	// 1.5 dB at CenterGHz +/- RollGHz (so the 2 dB-gain bandwidth is
	// 2*RollGHz for the default 3.5 dB peak).
	RollGHz float64
	// PsatDBm is the saturated output power.
	PsatDBm float64
	// Smoothness is the Rapp model knee sharpness.
	Smoothness float64
	// DCPowerMW is the amplifier's DC dissipation.
	DCPowerMW float64
}

// DefaultPA returns the paper's design point.
func DefaultPA() PowerAmp {
	return PowerAmp{GainDB: 3.5, CenterGHz: 90, RollGHz: 10, PsatDBm: 7.15, Smoothness: 2, DCPowerMW: 14}
}

// SmallSignalGainDB returns the gain at freqGHz.
func (pa PowerAmp) SmallSignalGainDB(freqGHz float64) float64 {
	d := (freqGHz - pa.CenterGHz) / pa.RollGHz
	return pa.GainDB - float64(1.5*d*d)
}

// OutputDBm returns the output power for an input at pinDBm and freqGHz,
// using the Rapp saturation model in the power domain.
func (pa PowerAmp) OutputDBm(pinDBm, freqGHz float64) float64 {
	g := dsp.FromDB(pa.SmallSignalGainDB(freqGHz))
	pin := dsp.FromDB(pinDBm) // mW
	psat := dsp.FromDB(pa.PsatDBm)
	lin := g * pin
	out := lin / math.Pow(1+math.Pow(lin/psat, pa.Smoothness), 1/pa.Smoothness)
	return dsp.DB(out)
}

// P1dBOutDBm finds the output-referred 1-dB compression point at freqGHz
// by bisection on input power.
func (pa PowerAmp) P1dBOutDBm(freqGHz float64) float64 {
	gDB := pa.SmallSignalGainDB(freqGHz)
	lo, hi := -40.0, 30.0
	for i := 0; i < 60; i++ {
		// The halving compiles to a product with 0.5; rounding it keeps
		// the gDB+mid below a plain add on every platform.
		mid := float64((lo + hi) / 2)
		comp := (gDB + mid) - pa.OutputDBm(mid, freqGHz)
		if comp < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return pa.OutputDBm(lo, freqGHz)
}

// BandwidthGHz returns the width of the band where small-signal gain
// stays at or above minGainDB.
func (pa PowerAmp) BandwidthGHz(minGainDB float64) float64 {
	if minGainDB >= pa.GainDB {
		return 0
	}
	half := float64(pa.RollGHz * math.Sqrt((pa.GainDB-minGainDB)/1.5))
	return 2 * half
}

// DrainEfficiency returns RF-out / DC-in at the given output level.
func (pa PowerAmp) DrainEfficiency(poutDBm float64) float64 {
	return dsp.FromDB(poutDBm) / pa.DCPowerMW
}

// LNA is the wideband common-source degeneration cascade-cascode
// low-noise amplifier: ~10 dB gain around 90 GHz, enough for 50 mm
// operation per the paper.
type LNA struct {
	// GainDB is the peak gain.
	GainDB float64
	// CenterGHz is the gain peak.
	CenterGHz float64
	// RollGHz sets the parabolic roll-off scale (1 dB down at +/-
	// RollGHz).
	RollGHz float64
	// NoiseFigureDB is the LNA noise figure.
	NoiseFigureDB float64
	// PowerMW is the DC dissipation.
	PowerMW float64
}

// DefaultLNA returns the paper's design point.
func DefaultLNA() LNA {
	return LNA{GainDB: 10, CenterGHz: 90, RollGHz: 15, NoiseFigureDB: 6, PowerMW: 6}
}

// GainAtDB returns the LNA gain at freqGHz.
func (l LNA) GainAtDB(freqGHz float64) float64 {
	d := (freqGHz - l.CenterGHz) / l.RollGHz
	return l.GainDB - float64(d*d)
}
