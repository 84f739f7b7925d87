package router

import (
	"fmt"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// Sink is the ejection endpoint of one core. It implements
// noc.FlitReceiver; the channel feeding it supplies credits through the
// usual CreditReturner path, which the sink releases immediately (ejection
// buffers drain into the core at full rate).
type Sink struct {
	// CoreID is the terminal identifier.
	CoreID int
	// OnPacket is invoked when a packet's tail flit arrives, with the
	// ejection cycle. The statistics collector hooks in here.
	OnPacket func(p *noc.Packet, cycle uint64)
	// Tap emits EvArrive for every delivered flit, before its credit is
	// returned, and EvEject for every completed packet, after OnPacket
	// (which the statistics collector owns).
	Tap noc.Tap

	upstream noc.CreditReturner
	eng      *sim.Engine

	// expected is the next flit sequence number each VC must deliver: a
	// VC carries one packet's flits in order before the next packet's
	// head, so it restarts at 0 after every tail. Indexed by VC; a VC
	// mask is 32 bits wide.
	expected [32]int
	// Ejected counts completed packets.
	Ejected uint64
}

// NewSink creates a sink for the given core.
func NewSink(coreID int) *Sink {
	return &Sink{CoreID: coreID}
}

// SetUpstream installs the credit-return path of the channel feeding this
// sink. Must be called before simulation.
func (s *Sink) SetUpstream(u noc.CreditReturner) { s.upstream = u }

// SetClock points the sink at the engine's cycle counter. Must be called
// before simulation. Sinks need no engine registration: they only ever
// react to ReceiveFlit.
func (s *Sink) SetClock(e *sim.Engine) { s.eng = e }

// Reset rewinds the sink to what NewSink left; wiring and the tap stay.
func (s *Sink) Reset() {
	s.expected = [32]int{}
	s.Ejected = 0
}

// ReceiveFlit implements noc.FlitReceiver.
func (s *Sink) ReceiveFlit(_ int, f *noc.Flit) {
	p := f.Pkt
	if p.Dst != s.CoreID {
		panic(fmt.Sprintf("router: sink %d: misrouted packet %d (src %d dst %d)", s.CoreID, p.ID, p.Src, p.Dst))
	}
	if want := s.expected[f.VC]; f.Seq != want {
		panic(fmt.Sprintf("router: sink %d: packet %d flit out of order on VC %d: seq %d, want %d", s.CoreID, p.ID, f.VC, f.Seq, want))
	}
	s.expected[f.VC] = f.Seq + 1
	if s.Tap.Wants(noc.EvArrive) {
		s.Tap.Emit(noc.Event{Kind: noc.EvArrive, Cycle: s.eng.Cycle(), Pkt: p, Flit: f})
	}
	// Ejection buffer drains immediately; return the credit.
	if s.upstream != nil {
		s.upstream.ReturnCredit(f.VC)
	}
	if f.IsTail() {
		now := s.eng.Cycle()
		s.expected[f.VC] = 0
		p.EjectedAt = now
		s.Ejected++
		if s.OnPacket != nil {
			s.OnPacket(p, now)
		}
		if s.Tap.Wants(noc.EvEject) {
			s.Tap.Emit(noc.Event{Kind: noc.EvEject, Cycle: now, Pkt: p})
		}
		// The tail is the last flit of the packet to be consumed
		// (in-order per-VC delivery), so the lifetime ends here; observers
		// above must not have retained the packet (see noc.Pool).
		noc.Recycle(p)
	}
}
