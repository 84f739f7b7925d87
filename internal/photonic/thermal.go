package photonic

import (
	"math"

	"ownsim/internal/sim"
)

// The paper's case against photonics-only kilo-core networks is that
// "mitigating thermal and parametric variations with exceedingly large
// number of components ... is difficult": every ring resonator must be
// tuned onto its wavelength against fabrication offsets and on-die
// temperature gradients. Its evaluation nevertheless folds this power
// into the per-bit figure (OptXB is reported as the least-power network
// despite ~half a million rings). This model quantifies what that
// omission hides: heater power per ring from resonance-shift physics
// (about 180 uW per ring with DefaultThermalModel), and per chip from a
// ring Inventory. The ring-tuning ablation benchmark
// (BenchmarkAblationRingTuning) does not call it; it charges the flat
// power.Params.PRingTuneUW of 20 uW per ring.

// ThermalModel captures ring-resonator tuning physics.
type ThermalModel struct {
	// NMPerK is the resonance red-shift per kelvin (silicon rings are
	// ~0.07-0.1 nm/K).
	NMPerK float64
	// TuneUWPerNM is the heater power to shift resonance by one
	// nanometre (integrated micro-heaters run ~200-400 uW/nm).
	TuneUWPerNM float64
	// ProcessSigmaNM is the post-fabrication resonance offset standard
	// deviation.
	ProcessSigmaNM float64
	// GradientK is the peak-to-peak on-die temperature variation the
	// tuning loop must absorb.
	GradientK float64
}

// DefaultThermalModel returns representative silicon-photonic constants.
func DefaultThermalModel() ThermalModel {
	return ThermalModel{
		NMPerK:         0.08,
		TuneUWPerNM:    300,
		ProcessSigmaNM: 0.5,
		GradientK:      10,
	}
}

// MeanTuneUWPerRing returns the expected heater power per ring: the mean
// absolute process offset (half-normal, sigma*sqrt(2/pi)) plus the mean
// absolute thermal excursion (uniform over +/- GradientK/2, so
// GradientK/4 kelvin), both converted to nanometres and then microwatts.
func (m ThermalModel) MeanTuneUWPerRing() float64 {
	processNM := m.ProcessSigmaNM * math.Sqrt(2/math.Pi)
	thermalNM := (m.GradientK / 4) * m.NMPerK
	return (processNM + thermalNM) * m.TuneUWPerNM
}

// ChipTuningMW returns the expected total tuning power for an inventory.
func (m ThermalModel) ChipTuningMW(inv Inventory) float64 {
	return float64(inv.Rings) * m.MeanTuneUWPerRing() / 1000
}

// SampleTuningMW draws one Monte-Carlo chip: every ring gets a Gaussian
// process offset and a uniform position in the thermal gradient, and the
// heater pays for the distance to its channel. Used by tests to validate
// the closed-form mean.
func (m ThermalModel) SampleTuningMW(rings int, seed uint64) float64 {
	rng := sim.NewRNG(seed)
	totalUW := 0.0
	for i := 0; i < rings; i++ {
		process := math.Abs(gaussSample(rng)) * m.ProcessSigmaNM
		thermal := (rng.Float64() - 0.5) * m.GradientK * m.NMPerK
		totalUW += (process + math.Abs(thermal)) * m.TuneUWPerNM
	}
	return totalUW / 1000
}

// gaussSample draws a standard normal via Box-Muller.
func gaussSample(r *sim.RNG) float64 {
	u1 := r.Float64()
	for u1 <= 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
