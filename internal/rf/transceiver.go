package rf

// Transceiver aggregates the OOK chain of Figure 3's inset: oscillator +
// modulated PA on the transmit side, LNA + envelope detector on the
// receive side.
type Transceiver struct {
	Osc Oscillator
	PA  PowerAmp
	LNA LNA
	// DetectorMW is the envelope detector (diode-connected transistor)
	// power.
	DetectorMW float64
	// RateGbps is the OOK data rate.
	RateGbps float64
}

// DefaultTransceiver returns the 65-nm, 90 GHz, 32 Gb/s design the paper
// simulates.
func DefaultTransceiver() Transceiver {
	return Transceiver{
		Osc:        DefaultOscillator(),
		PA:         DefaultPA(),
		LNA:        DefaultLNA(),
		DetectorMW: 1,
		RateGbps:   32,
	}
}

// TotalPowerMW returns the chain's DC power (OOK gates the PA with the
// data, halving its average draw for balanced data).
func (t Transceiver) TotalPowerMW() float64 {
	return t.Osc.PowerMW + t.PA.DCPowerMW/2 + t.LNA.PowerMW + t.DetectorMW
}

// EnergyPerBitPJ returns the transceiver energy per bit. For the default
// 65-nm chain this lands near 0.6-0.8 pJ/bit — the same order as today's
// published mm-wave OOK links — versus the 0.1 pJ/bit Table III projects
// for matured CMOS, which the paper presents as a technology target.
func (t Transceiver) EnergyPerBitPJ() float64 {
	// mW over Gb/s is pJ/bit: 10^-3 W / 10^9 bit/s = 10^-12 J/bit.
	return t.TotalPowerMW() / t.RateGbps
}

// LinkCloses reports whether the chain closes an on-chip link of distMM
// with the given total antenna directivity: the PA's 1-dB-compressed
// output must meet the Figure 3 requirement.
func (t Transceiver) LinkCloses(distMM float64, directivityDBi Decibels, lb LinkBudget) bool {
	avail := DBm(t.PA.P1dBOutDBm(t.Osc.CenterGHz))
	need := lb.RequiredTxDBm(distMM, t.Osc.CenterGHz, t.RateGbps, directivityDBi)
	return avail >= need
}
