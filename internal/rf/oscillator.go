package rf

import (
	"math"
	"math/cmplx"

	"ownsim/internal/dsp"
	"ownsim/internal/sim"
)

// Oscillator is a behavioral Colpitts oscillator: a carrier at CenterGHz
// with 1/f^2 (random-walk) phase noise whose level is anchored at
// PN1MHzDBc at 1 MHz offset — the paper reports about -86 dBc/Hz for the
// 90 GHz design at 1 V supply.
type Oscillator struct {
	// CenterGHz is the carrier frequency.
	CenterGHz float64
	// PN1MHzDBc is the phase noise at 1 MHz offset in dBc/Hz.
	PN1MHzDBc float64
	// PowerMW is the DC power draw of the core (for transceiver energy
	// accounting).
	PowerMW float64
}

// DefaultOscillator returns the paper's 90 GHz Colpitts design point.
func DefaultOscillator() Oscillator {
	return Oscillator{CenterGHz: 90, PN1MHzDBc: -86, PowerMW: 4}
}

// PhaseNoiseDBc returns the analytic Leeson-model phase noise at the
// given offset (Hz): -20 dB/decade from the 1 MHz anchor, which is the
// far-from-carrier behavior of a random-walk-phase oscillator.
func (o Oscillator) PhaseNoiseDBc(offsetHz float64) float64 {
	return o.PN1MHzDBc - float64(20*math.Log10(offsetHz/1e6))
}

// LinewidthHz returns the Lorentzian full linewidth implied by the phase
// noise anchor: L(df) ~ linewidth / (pi * df^2) far from carrier.
func (o Oscillator) LinewidthHz() float64 {
	l := dsp.FromDB(o.PN1MHzDBc) // 1/Hz at 1 MHz
	return l * math.Pi * 1e12
}

// Baseband synthesizes n samples of the unit-amplitude complex envelope
// exp(j*phi(t)) at sample rate fs (Hz), with phi a random walk whose
// increment variance matches the linewidth. The PSD of this signal is
// the oscillator spectrum translated to baseband (Figure 4a).
func (o Oscillator) Baseband(n int, fs float64, seed uint64) []complex128 {
	dt := 1.0 / fs
	sigma := math.Sqrt(2 * math.Pi * o.LinewidthHz() * dt)
	rng := sim.NewRNG(seed)
	x := make([]complex128, n)
	phi := 0.0
	for i := range x {
		x[i] = cmplx.Exp(complex(0, phi))
		phi += float64(sigma * gauss(rng))
	}
	return x
}

// MeasurePhaseNoise estimates the phase noise at offsetHz from a Welch
// PSD of the synthesized envelope: the PSD away from the carrier, in
// dBc/Hz (the envelope has unit total power, so the PSD is already
// carrier-relative).
func (o Oscillator) MeasurePhaseNoise(offsetHz float64, seed uint64) float64 {
	// Sample fast enough that the offset sits well inside the band and
	// long enough that the resolution bandwidth is ~offset/16.
	fs := offsetHz * 64
	segLen := 2048
	n := segLen * 24
	x := o.Baseband(n, fs, seed)
	psd := dsp.Welch(x, fs, segLen)
	// Average the PSD at +/- offset for variance reduction.
	p := (dsp.PSDAt(psd, offsetHz, fs) + dsp.PSDAt(psd, -offsetHz, fs)) / 2
	return dsp.DB(p)
}

// gauss draws a standard normal via Box-Muller.
func gauss(r *sim.RNG) float64 {
	u1 := r.Float64()
	for u1 <= 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
