// Package wireless models the paper's mm-wave/sub-THz wireless substrate:
// link-distance classes (Table I), the channel allocations of OWN-256 and
// OWN-1024 (Tables I and II), the 16-band frequency/technology plan with
// per-band energy-per-bit (Table III, ideal and conservative scenarios),
// the four architecture configurations (Table IV), and the sbus-backed
// simulated channels the OWN networks are built from.
//
// The printed Table III in the paper is an image; its structure is
// reconstructed here from every numeric anchor in the prose: base
// efficiencies of 0.1 pJ/bit (CMOS) and 0.5 pJ/bit (SiGe HBT) with BiCMOS
// between them; efficiency ramps of +0.05/+0.07/+0.10 pJ/bit per band
// (CMOS/BiCMOS/HBT) in the ideal case and +0.05/+0.06/+0.07 in the
// conservative case; 32 GHz bands with 8 GHz isolation (ideal) vs 16 GHz
// bands with 4 GHz isolation (conservative) starting at 90 GHz; SiGe-only
// circuitry above ~300 GHz; exactly four CMOS channels in the ideal plan;
// links 1-12 for inter-cluster traffic and 13-16 reserved for
// reconfiguration; LD factors 1.0 (C2C), 0.5 (E2E), 0.15 (SR).
package wireless

import "fmt"

// DistClass is a wireless link-distance class from Table I.
type DistClass int

const (
	// C2C is a diagonal corner-to-corner link (~60 mm).
	C2C DistClass = iota
	// E2E is an edge-to-edge link (~30 mm).
	E2E
	// SR is a short-range link (~10 mm).
	SR
)

// String implements fmt.Stringer.
func (d DistClass) String() string {
	switch d {
	case C2C:
		return "C2C"
	case E2E:
		return "E2E"
	case SR:
		return "SR"
	}
	return fmt.Sprintf("DistClass(%d)", int(d))
}

// NominalMM returns the class's nominal link distance from Table I.
func (d DistClass) NominalMM() float64 {
	switch d {
	case C2C:
		return 60
	case E2E:
		return 30
	case SR:
		return 10
	}
	panic("wireless: bad DistClass")
}

// LDFactor returns the link-distance power scaling factor from Table III:
// transmit power is tuned down for shorter links per the Figure 3 link
// budget.
func (d DistClass) LDFactor() float64 {
	switch d {
	case C2C:
		return 1.0
	case E2E:
		return 0.5
	case SR:
		return 0.15
	}
	panic("wireless: bad DistClass")
}

// Tech is a transceiver device technology.
type Tech int

const (
	// CMOS is plain 65/45 nm RF CMOS: lowest power, band-limited.
	CMOS Tech = iota
	// BiCMOS mixes CMOS with SiGe HBT in the PA/LNA only.
	BiCMOS
	// SiGeHBT is an HBT-only transceiver for the highest bands.
	SiGeHBT
)

// String implements fmt.Stringer.
func (t Tech) String() string {
	switch t {
	case CMOS:
		return "CMOS"
	case BiCMOS:
		return "BiCMOS"
	case SiGeHBT:
		return "SiGe"
	}
	return fmt.Sprintf("Tech(%d)", int(t))
}

// BasePJPerBit is the band-0 transceiver efficiency of the technology.
func (t Tech) BasePJPerBit() float64 {
	switch t {
	case CMOS:
		return 0.1
	case BiCMOS:
		return 0.3
	case SiGeHBT:
		return 0.5
	}
	panic("wireless: bad Tech")
}

// RampPJPerBit is the per-band efficiency degradation (losses grow with
// frequency on a silicon substrate).
func (t Tech) RampPJPerBit(s Scenario) float64 {
	switch s {
	case Ideal:
		switch t {
		case CMOS:
			return 0.05
		case BiCMOS:
			return 0.07
		case SiGeHBT:
			return 0.10
		}
	case Conservative:
		switch t {
		case CMOS:
			return 0.05
		case BiCMOS:
			return 0.06
		case SiGeHBT:
			return 0.07
		}
	}
	panic("wireless: bad Tech/Scenario")
}

// Scenario selects between the two Table III outlooks.
type Scenario int

const (
	// Ideal assumes 32 GHz channels with 8 GHz isolation.
	Ideal Scenario = iota
	// Conservative assumes 16 GHz channels with 4 GHz isolation,
	// minimizing SiGe HBT usage.
	Conservative
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Ideal:
		return "ideal"
	case Conservative:
		return "conservative"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// BWGHz returns the per-channel bandwidth.
func (s Scenario) BWGHz() float64 {
	switch s {
	case Ideal:
		return 32
	default:
		return 16
	}
}

// BWGbps returns the per-channel data rate (non-coherent OOK at ~1
// bit/s/Hz, the paper's 32 Gbps at 32 GHz).
func (s Scenario) BWGbps() float64 { return s.BWGHz() }

// IsolationGHz returns the inter-band guard bandwidth.
func (s Scenario) IsolationGHz() float64 {
	switch s {
	case Ideal:
		return 8
	default:
		return 4
	}
}

// StartGHz is the center frequency of band 0 (the CMOS designs of
// Section IV operate at 90-100 GHz).
const StartGHz = 90.0

// NumBands is the size of the Table III plan.
const NumBands = 16

// Band is one row of Table III.
type Band struct {
	// Index is the 0-based band number (the paper's link 1-16).
	Index int
	// CenterGHz is the band's center frequency.
	CenterGHz float64
	// Tech is the device technology the frequency demands.
	Tech Tech
	// BWGbps is the channel data rate.
	BWGbps float64
}

// EPBpJ returns the band's transceiver energy per bit (before LD
// scaling). The explicit float64 rounds the product before the add, so
// no platform fuses the two into one multiply-add and every host prices
// a band alike.
func (b Band) EPBpJ(s Scenario) float64 {
	return b.Tech.BasePJPerBit() + float64(b.Tech.RampPJPerBit(s)*float64(b.Index))
}

// techFor maps a center frequency to the required technology: CMOS below
// 230 GHz, SiGe-only circuitry from 310 GHz (the paper's ~300 GHz limit:
// neither plan has a band in [300, 310) GHz, so the two readings agree),
// BiCMOS between. Both scenarios keep at least two BiCMOS bands for SDM
// pairing (ideal two, conservative four), and the ideal plan lands on
// exactly four CMOS channels, the anchor of the paper's SDM discussion.
func techFor(freqGHz float64) Tech {
	switch {
	case freqGHz < 230:
		return CMOS
	case freqGHz < 310:
		return BiCMOS
	default:
		return SiGeHBT
	}
}

// BandPlan returns the 16-band Table III plan for the scenario. Band k's
// center frequency is StartGHz + k*(BW + isolation).
func BandPlan(s Scenario) []Band {
	step := s.BWGHz() + s.IsolationGHz()
	plan := make([]Band, NumBands)
	for k := 0; k < NumBands; k++ {
		f := StartGHz + float64(float64(k)*step)
		plan[k] = Band{Index: k, CenterGHz: f, Tech: techFor(f), BWGbps: s.BWGbps()}
	}
	return plan
}

// BandsOf returns the plan's band indices using the given technology.
func BandsOf(plan []Band, t Tech) []int {
	var out []int
	for _, b := range plan {
		if b.Tech == t {
			out = append(out, b.Index)
		}
	}
	return out
}
