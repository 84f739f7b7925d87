package power

import (
	"fmt"
	"strings"
)

// Meter prices one simulated network: it holds readers of the event
// counts the components keep (registered by the builders with their price
// class), a static-power inventory, and the one count it is handed per
// event (BufWrite). Nothing is accumulated in floats: every report is
// count × constant, computed when asked. All methods are nil-safe so unit
// tests can wire components without a meter. Meters are not safe for
// concurrent use; each simulated network owns exactly one and the engine
// is single-threaded (parallelism in this repository is across independent
// simulations).
type Meter struct {
	P *Params

	// Event counts. NBufWrite is live (BufWrite); the other five are
	// the components' counts as of the last pricing read (Energy, and
	// everything built on it).
	NBufWrite    uint64
	NBufRead     uint64
	NXbar        uint64
	NElecFlit    uint64
	NPhotFlit    uint64
	NWirelessFlt uint64

	// Readers, in registration order.
	routers []routerReader
	links   []linkReader
	radios  []radioReader

	// Static inventory.
	leakMW Milliwatts
}

type routerReader struct {
	radix int
	read  func() (grants, vcAllocs uint64)
}

type linkReader struct {
	flits *uint64 // a wire's Delivered or a photonic bus's Transmitted
	mm    float64 // electrical length; 0 prices the flit as photonic
}

type radioReader struct {
	id       int
	class    string
	epbPJ    float64
	discards uint64  // non-addressed receivers per transmitted flit
	flits    *uint64 // the channel's Transmitted
}

// NewMeter creates a meter over the given parameter table.
func NewMeter(p *Params) *Meter {
	if p == nil {
		p = DefaultParams()
	}
	return &Meter{P: p}
}

// BufWrite counts one input-buffer write. It is the one per-event call
// left, and only because bench/ladder.go steps its router rung until
// Meter.NBufWrite reaches a target with no pricing read in between; the
// price is radix-independent, so a network-wide count loses nothing. Once
// that rung reads Router.Counts(), buffer writes become a router count
// like the rest and this method and router.Config.Meter can go.
func (m *Meter) BufWrite() {
	if m != nil {
		m.NBufWrite++
	}
}

// ReadRouter registers a router's count reader: switch-allocation grants
// (each also one buffer read and one crossbar traversal at this radix)
// and VC allocations.
func (m *Meter) ReadRouter(radix int, read func() (grants, vcAllocs uint64)) {
	if m != nil {
		m.routers = append(m.routers, routerReader{radix, read})
	}
}

// ReadLink registers a link's flit count (a wire's Delivered, a photonic
// bus's Transmitted), priced per flit as an electrical link of the given
// length, or as a photonic link when mm is 0.
func (m *Meter) ReadLink(flits *uint64, mm float64) {
	if m != nil {
		m.links = append(m.links, linkReader{flits, mm})
	}
}

// ReadWireless registers the transmitted-flit count of wireless channel
// id at the given transmit energy per bit (which the wireless package
// derives from the Table III band plan, the configuration and the
// link-distance factor). class labels the channel for energy attribution
// ("C2C", "E2E", "SR", or a builder label such as "grid"; "" reports as
// "unclassified", a negative id as "unattributed"). Each flit also costs
// the receive-and-discard energy at `discards` non-addressed SWMR
// receivers.
func (m *Meter) ReadWireless(id int, class string, epbPJ float64, discards int, flits *uint64) {
	if m == nil {
		return
	}
	if class == "" {
		class = "unclassified"
	}
	if id < 0 {
		class = "unattributed"
	}
	m.radios = append(m.radios, radioReader{id, class, epbPJ, uint64(discards), flits})
}

// PriceWireless re-prices the registered wireless channels: channel id
// costs epbPJByChannel[id] per bit from now on (ids outside the table keep
// their price). The Table IV configurations change nothing but this, so
// one simulation prices all four. Only for plain builds: a reconfigured
// channel's price is a bonded mean no plan table holds.
func (m *Meter) PriceWireless(epbPJByChannel []float64) {
	for i := range m.radios {
		if r := &m.radios[i]; r.id >= 0 && r.id < len(epbPJByChannel) {
			r.epbPJ = epbPJByChannel[r.id]
		}
	}
}

// RegisterRouter adds one router's base + crossbar leakage to the static
// inventory.
func (m *Meter) RegisterRouter(radix, vcs int) {
	if m == nil {
		return
	}
	_ = vcs
	m.leakMW += Milliwatts(m.P.RouterLeakMW(radix))
}

// RegisterInputPort adds the leakage of one connected input port's VC
// buffers.
func (m *Meter) RegisterInputPort(vcs int) {
	if m == nil {
		return
	}
	m.leakMW += Milliwatts(m.P.PLeakPerVCBufMW * float64(vcs))
}

// Energy is one pricing of the registered counts: dynamic energy so far
// by component.
type Energy struct {
	BufWrite, BufRead, Xbar, Arb, ElecLink, Photonic, WirelessTx, WirelessRx Picojoules
}

// Energy is the pricing read every report, row, gauge and heatmap goes
// through: each registered count × its constant, summed in registration
// order. It changes nothing but the five read-out N* fields.
func (m *Meter) Energy() Energy {
	p, bits := m.P, float64(m.P.FlitBits)
	var e Energy
	var grantsAll, elec, phot, radio, discarded uint64
	for _, r := range m.routers {
		grants, vcAllocs := r.read()
		grantsAll += grants
		e.Xbar += Picojoules(float64(grants) * p.XbarPJ(r.radix))
		e.Arb += Picojoules(float64(float64(grants)*p.SAArbPJ(r.radix)) + float64(float64(vcAllocs)*p.EVCAArbPJ))
	}
	for _, l := range m.links {
		if l.mm > 0 {
			elec += *l.flits
			e.ElecLink += Picojoules(float64(*l.flits) * (p.EElecPJPerBitMM * bits * l.mm))
		} else {
			phot += *l.flits
		}
	}
	for i := range m.radios {
		r := &m.radios[i]
		radio += *r.flits
		discarded += *r.flits * r.discards
		e.WirelessTx += r.txPJ(bits)
	}
	m.NBufRead, m.NXbar, m.NElecFlit, m.NPhotFlit, m.NWirelessFlt = grantsAll, grantsAll, elec, phot, radio
	e.BufWrite = Picojoules(float64(m.NBufWrite) * p.EBufWritePJ)
	e.BufRead = Picojoules(float64(grantsAll) * p.EBufReadPJ)
	e.Photonic = Picojoules(float64(phot) * (p.EPhotonicPJPerBit * bits))
	e.WirelessRx = Picojoules(float64(discarded) * (p.EWirelessRxDiscardPJPerBit * bits))
	return e
}

// txPJ prices the channel's flit count: the per-channel product the
// wireless total, the class rows, the Figure 5 average and the heatmap
// are all sums of.
func (r *radioReader) txPJ(flitBits float64) Picojoules {
	return Picojoules(float64(*r.flits) * (r.epbPJ * flitBits))
}

// Breakdown is a power report in milliwatts by category, matching the
// stacking of the paper's Figure 6.
type Breakdown struct {
	RouterDynMW    Milliwatts // buffers + crossbar + allocators
	RouterStaticMW Milliwatts // leakage
	ElecLinkMW     Milliwatts
	PhotonicMW     Milliwatts
	WirelessMW     Milliwatts // transmit + SWMR discard
	Cycles         uint64
}

// TotalMW returns the sum of all categories.
func (b Breakdown) TotalMW() Milliwatts {
	return b.RouterDynMW + b.RouterStaticMW + b.ElecLinkMW + b.PhotonicMW + b.WirelessMW
}

// String renders the breakdown as a one-line summary.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total %.2f mW (router dyn %.2f, router static %.2f, elec %.2f, photonic %.2f, wireless %.2f)",
		b.TotalMW(), b.RouterDynMW, b.RouterStaticMW, b.ElecLinkMW, b.PhotonicMW, b.WirelessMW)
	return sb.String()
}

// Report prices the counts so far and spreads the energy over the given
// number of cycles as average power. It panics if cycles is zero.
func (m *Meter) Report(cycles uint64) Breakdown {
	if cycles == 0 {
		panic("power: report over zero cycles")
	}
	ns := Nanoseconds(float64(cycles) * m.P.CycleNS())
	e := m.Energy()
	return Breakdown{
		RouterDynMW:    (e.BufWrite + e.BufRead + e.Xbar + e.Arb).OverNS(ns),
		RouterStaticMW: m.leakMW,
		ElecLinkMW:     e.ElecLink.OverNS(ns),
		PhotonicMW:     e.Photonic.OverNS(ns),
		WirelessMW:     (e.WirelessTx + e.WirelessRx).OverNS(ns),
		Cycles:         cycles,
	}
}

// WirelessAvgChannelMW returns the mean wireless link power per
// registered channel over the given cycles, the quantity plotted in the
// paper's Figure 5.
func (m *Meter) WirelessAvgChannelMW(cycles uint64) Milliwatts {
	if m == nil || len(m.radios) == 0 || cycles == 0 {
		return 0
	}
	ns := Nanoseconds(float64(cycles) * m.P.CycleNS())
	return Milliwatts(float64(m.Energy().WirelessTx.OverNS(ns)) / float64(len(m.radios)))
}
