// Package noc defines the elementary data types of the network-on-chip
// model — packets, flits, and the channel interfaces that connect routers,
// network interfaces, photonic buses and wireless channels — plus Wire, the
// plain pipelined electrical link.
//
// Packets are the unit of routing; flits are the unit of flow control and
// link traversal. All channels in this repository are credit-based: a
// channel may only forward a flit into a downstream virtual-channel buffer
// for which it holds a credit, and the downstream buffer returns the credit
// when the slot frees.
package noc

import "fmt"

// FlitType distinguishes the position of a flit within its packet.
type FlitType uint8

const (
	// Head flits open a packet: they carry routing information and
	// trigger route computation and VC allocation.
	Head FlitType = iota
	// Body flits follow the head through the path it reserved.
	Body
	// Tail flits close a packet and release its virtual channels.
	Tail
	// HeadTail marks a single-flit packet.
	HeadTail
)

// String implements fmt.Stringer.
func (t FlitType) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	}
	return fmt.Sprintf("FlitType(%d)", uint8(t))
}

// Packet is one network transaction from a source core to a destination
// core. Timing fields are filled in as the packet moves through the
// network and are consumed by the statistics collector.
type Packet struct {
	// ID is unique within one simulation run.
	ID uint64
	// Src and Dst are core (terminal) identifiers.
	Src, Dst int
	// NumFlits is the packet length in flits.
	NumFlits int
	// Class is a topology-defined traffic class used to restrict
	// virtual-channel usage for deadlock freedom (e.g. OWN-1024 uses
	// class 0 for intra-group and classes 1-3 for inter-group traffic).
	Class int
	// CreatedAt is the cycle the packet entered its source queue.
	CreatedAt uint64
	// InjectedAt is the cycle the head flit left the source queue.
	InjectedAt uint64
	// EjectedAt is the cycle the tail flit reached the destination.
	EjectedAt uint64
	// Measure marks packets created during the measurement phase; only
	// these contribute to latency and throughput statistics.
	Measure bool
	// Hops counts router traversals, checked against topology diameter
	// bounds in tests.
	Hops int

	// Pooling internals (see Pool): the owning freelist, the packet's
	// reusable flit storage, the lifetime generation counter, and the
	// double-recycle guard.
	pool     *Pool
	flitBuf  []Flit
	flitPtrs []*Flit
	gen      uint32
	freed    bool
}

// Latency returns the packet's total queueing + network latency in cycles.
// It is only meaningful after ejection.
func (p *Packet) Latency() uint64 { return p.EjectedAt - p.CreatedAt }

// NetworkLatency returns cycles spent inside the network (excluding source
// queueing).
func (p *Packet) NetworkLatency() uint64 { return p.EjectedAt - p.InjectedAt }

// Flit is the unit of buffering and link traversal. Flits carry a pointer
// to their packet; per-link state (the virtual channel assignment) is
// rewritten at every hop.
type Flit struct {
	Pkt *Packet
	// Seq is the flit's index within the packet, 0-based.
	Seq int
	// VC is the virtual channel the flit occupies on the link it is
	// currently traversing. Routers rewrite it during VC allocation.
	VC int
	// Type sits beside gen so that link fits in a 40-byte flit on a
	// 64-bit host.
	Type FlitType

	// gen snapshots the packet's lifetime generation at materialization;
	// see Live.
	gen uint32
	// link is the flit's successor in the FlitFIFO that holds it.
	link *Flit
}

// IsHead reports whether the flit opens a packet.
func (f *Flit) IsHead() bool { return f.Type == Head || f.Type == HeadTail }

// IsTail reports whether the flit closes a packet.
func (f *Flit) IsTail() bool { return f.Type == Tail || f.Type == HeadTail }

// Live reports whether the flit's storage still belongs to the packet
// lifetime it was materialized for. It turns false the moment the packet
// is recycled — a component or hook holding a flit past that point is
// violating the pooling ownership protocol (see Pool). Debug checks and
// pool-safety tests assert it.
func (f *Flit) Live() bool { return f.Pkt == nil || f.gen == f.Pkt.gen }

// MakeFlits materializes the flit sequence for a packet in freshly
// allocated storage independent of the packet's pooled buffers. The hot
// path uses FlitsOf instead; MakeFlits remains for callers that need the
// flits to outlive the packet lifetime.
func MakeFlits(p *Packet) []*Flit {
	fl := make([]*Flit, p.NumFlits)
	for i := range fl {
		fl[i] = &Flit{Pkt: p, Seq: i, Type: flitTypeAt(i, p.NumFlits), gen: p.gen}
	}
	return fl
}
