// Package power provides DSENT-class energy accounting for the simulated
// networks. The paper used DSENT v0.91 at a bulk 45 nm LVT node to cost
// electrical routers and links; here the same role is played by a table of
// per-event energies (Params) and a Meter that prices the event counts the
// components keep: the builders register a reader of each count with its
// price class, and every report is count × constant, computed when asked
// (Meter.Energy) — never accumulated. Reports are in milliwatts: the priced
// picojoules over the simulated time.
//
// Absolute numbers are model constants, not silicon measurements; the
// experiments in EXPERIMENTS.md compare *relative* power between
// architectures, which is what the paper's Figures 5, 6 and 8 report.
package power

// Params holds the energy/leakage constants of the technology model.
// Defaults are chosen to be representative of a 45 nm LVT electrical node
// with the photonic and wireless figures the paper quotes (photonic links
// at 1-2 pJ/bit wall-plug; wireless per-channel energies from the Table III
// band plan, which the wireless package registers per channel through
// Meter.ReadWireless).
type Params struct {
	// FlitBits is the flit width used to convert flit events to bits.
	FlitBits int
	// ClockGHz is the router clock; 1 cycle = 1/ClockGHz ns.
	ClockGHz float64

	// Router dynamic energy, per flit or per operation (pJ).
	EBufWritePJ    float64 // input buffer write, per flit
	EBufReadPJ     float64 // input buffer read, per flit
	EXbarBasePJ    float64 // crossbar traversal, per flit, radix-independent part
	EXbarPerPortPJ float64 // crossbar traversal, per flit, per port (wire length grows with radix)
	ESAArbBasePJ   float64 // switch-allocation arbitration, per grant
	ESAPerPortPJ   float64 // switch allocation, per grant, per port
	EVCAArbPJ      float64 // VC allocation, per grant

	// Electrical link traversal (pJ per bit per millimetre).
	EElecPJPerBitMM float64

	// Photonic link energy per bit (pJ), wall-plug inclusive of the
	// off-chip laser share, per the paper's "1-2 pJ/bit".
	EPhotonicPJPerBit float64

	// Router leakage (45 nm LVT is leakage-heavy): a per-router base, a
	// per-port term for the crossbar/allocator area, and a per-VC-buffer
	// term for the input queues. Buffers leak only where they exist:
	// a 256x256 crossbar router has hundreds of output ports but only
	// its connected input ports carry buffers.
	PRouterLeakBaseMW float64
	PLeakPerPortMW    float64 // per port (crossbar/arbiter area)
	PLeakPerVCBufMW   float64 // per connected input VC buffer

	// EWirelessRxDiscardPJPerBit is the receiver-side energy spent
	// analyzing and discarding a multicast (SWMR) flit not addressed to
	// this cluster; the paper notes this as the cost of wireless SWMR.
	EWirelessRxDiscardPJPerBit float64
}

// DefaultParams returns the calibrated technology constants used by all
// experiments. See EXPERIMENTS.md for the calibration evidence.
func DefaultParams() *Params {
	return &Params{
		FlitBits:                   128,
		ClockGHz:                   2.0,
		EBufWritePJ:                1.2,
		EBufReadPJ:                 0.9,
		EXbarBasePJ:                0.3,
		EXbarPerPortPJ:             0.10,
		ESAArbBasePJ:               0.05,
		ESAPerPortPJ:               0.01,
		EVCAArbPJ:                  0.08,
		EElecPJPerBitMM:            0.10,
		EPhotonicPJPerBit:          1.5,
		PRouterLeakBaseMW:          0.3,
		PLeakPerPortMW:             0.002,
		PLeakPerVCBufMW:            0.02,
		EWirelessRxDiscardPJPerBit: 0.05,
	}
}

// CycleNS returns the duration of one clock cycle in nanoseconds.
func (p *Params) CycleNS() float64 { return 1.0 / p.ClockGHz }

// XbarPJ returns the crossbar traversal energy for one flit through a
// switch of the given radix.
func (p *Params) XbarPJ(radix int) float64 {
	return p.EXbarBasePJ + float64(p.EXbarPerPortPJ*float64(radix))
}

// SAArbPJ returns the switch-allocation energy for one grant at the given
// radix.
func (p *Params) SAArbPJ(radix int) float64 {
	return p.ESAArbBasePJ + float64(p.ESAPerPortPJ*float64(radix))
}

// RouterLeakMW returns the static power of one router's base and crossbar
// area (buffer leakage is added per connected input port).
func (p *Params) RouterLeakMW(radix int) float64 {
	return p.PRouterLeakBaseMW + float64(p.PLeakPerPortMW*float64(radix))
}
