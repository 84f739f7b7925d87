package noc

// EventKind identifies one observable step of the simulated network. The
// set is closed: every component that can be watched emits a subset of
// these kinds through its Tap, and every observer (tracer, span tracker,
// conformance checker, delivery log) subscribes to the kinds
// it reads. DESIGN.md §10 tabulates emitter, operands and subscribers.
type EventKind uint8

const (
	// EvEnqueue: a Source admitted Pkt to its queue.
	EvEnqueue EventKind = iota
	// EvInject: Pkt's head flit left the Source queue for the network.
	EvInject
	// EvLaunch: a Source sent Flit into the network.
	EvLaunch
	// EvRoute: a Router computed Pkt's route. A=input port, B=output
	// port, C=permitted output-VC mask.
	EvRoute
	// EvVCAlloc: a Router granted Pkt an output VC. A=output port,
	// B=output VC.
	EvVCAlloc
	// EvSwitch: Flit won switch allocation and crossed a Router's
	// crossbar. A=input port, B=output port, C=output VC.
	EvSwitch
	// EvGrant: a shared channel locked onto Pkt. A=winning writer,
	// B=selected receiver, C=token-passing cost in cycles.
	EvGrant
	// EvFlitTx: a shared channel began serializing Flit. A=receiver.
	EvFlitTx
	// EvRelease: Pkt's tail flit freed a shared channel's whole-packet
	// lock. A=releasing writer.
	EvRelease
	// EvDeliver: Flit landed in a shared channel's receiver. A=receiver.
	EvDeliver
	// EvArrive: Flit reached a Sink (before its credit returns).
	EvArrive
	// EvEject: Pkt's tail flit reached its Sink; the packet is complete.
	EvEject
	// EvRecycle: Pkt is about to return to its Pool. Pools have no clock;
	// Cycle is zero.
	EvRecycle
	// NumEventKinds bounds the enum.
	NumEventKinds
)

// Event is one observation, passed by value so emitting never allocates.
// Pkt is set for every kind; Flit is set for the per-flit kinds
// (EvLaunch, EvSwitch, EvFlitTx, EvDeliver, EvArrive), where Pkt is
// Flit.Pkt. A, B and C are the per-kind operands documented on the kinds.
// Subscribers may read Pkt and Flit only during the call (see Pool).
type Event struct {
	Kind    EventKind
	Cycle   uint64
	Pkt     *Packet
	Flit    *Flit
	A, B, C int
}

// Mask returns the subscription mask selecting the given kinds.
func Mask(kinds ...EventKind) uint32 {
	var m uint32
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Tap is the one observation seam of a component: Channel, Router, Source,
// Sink and Pool each embed one by value. The zero Tap has no subscribers
// and wants nothing, so an unobserved event site costs one predictable
// mask test and builds no Event. Observers only record: a subscriber must
// never feed anything back into the simulation, which is what keeps an
// observed run bit-identical to a bare one (the *Inert* and SpanIdentity
// tests compare the two). A Tap belongs to one single-threaded network.
type Tap struct {
	mask uint32
	subs []tapSub
}

type tapSub struct {
	mask uint32
	fn   func(Event)
}

// Subscribe registers fn for every kind in mask. Subscribers of one kind
// run in subscription order.
func (t *Tap) Subscribe(mask uint32, fn func(Event)) {
	t.mask |= mask
	t.subs = append(t.subs, tapSub{mask, fn})
}

// Wants reports whether any subscriber reads kind k; emitters test it
// before building an Event.
func (t *Tap) Wants(k EventKind) bool { return t.mask&(1<<k) != 0 }

// Emit delivers e to the subscribers of its kind.
func (t *Tap) Emit(e Event) {
	for i := range t.subs {
		if s := &t.subs[i]; s.mask&(1<<e.Kind) != 0 {
			s.fn(e)
		}
	}
}
