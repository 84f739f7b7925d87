package noc

// FlitReceiver is anything that accepts flits into per-port, per-VC input
// buffers: routers and ejection sinks. Channels call ReceiveFlit when a
// flit completes its traversal; the flit's VC field names the target
// virtual channel, which the receiver must have granted a credit for.
type FlitReceiver interface {
	ReceiveFlit(port int, f *Flit)
}

// CreditReceiver is anything that accepts returned credits for one of its
// output ports: routers and traffic sources. Channels call ReceiveCredit
// after the downstream buffer slot frees and the credit has traversed the
// reverse path.
type CreditReceiver interface {
	ReceiveCredit(port, vc int)
}

// Conduit is the downstream target of a router or source output port: a
// wire, a photonic bus writer, or a wireless transmitter. Send is called at
// switch-traversal time; the conduit owns all further timing.
type Conduit interface {
	Send(f *Flit)
}

// CreditReturner is the upstream side of an input buffer: when the buffer
// pops a flit it returns the freed slot's credit through this interface.
// Wires forward the credit to the upstream output port after the reverse
// link delay; buses return it to their internal credit pool.
type CreditReturner interface {
	ReturnCredit(vc int)
}
