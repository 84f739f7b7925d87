package noc

// Pool is a freelist of packets together with their flit storage. Each
// traffic source owns one: packets are taken from the source's pool at
// generation time and recycled by the ejection sink when the tail flit
// arrives, so a network in steady state allocates nothing per packet.
//
// Ownership protocol (who may hold a flit, when recycling is legal):
//
//   - A packet and its flits belong to exactly one lifetime, delimited by
//     Get and Recycle. Between the two, the flits live in at most one
//     place at a time — a source's in-flight slice, a channel queue, or a
//     router VC buffer — because wormhole switching moves each flit
//     pointer, never copies it.
//   - Hooks (Tap subscribers, stats collectors) may read a
//     packet or flit only for the duration of the callback; retaining the
//     pointer past the callback observes recycled storage.
//   - Recycle is legal exactly when the tail flit has been consumed by
//     the sink: in-order per-VC delivery guarantees every earlier flit of
//     the packet has already been delivered and released.
//
// Every Recycle bumps the packet's generation counter; Flit.Live detects
// stale references in debug checks and tests. A Pool is not safe for
// concurrent use — like the network that owns it, it is single-threaded.
type Pool struct {
	free []*Packet

	// Tap emits EvRecycle for every packet returned to this pool, before
	// the lifetime ends, so the conformance checker can audit the
	// packet's conservation ledger: a recycle of a packet whose flits
	// were launched but not all delivered is a pooling-protocol
	// violation the tail-side checks alone cannot see.
	Tap Tap

	// Gets counts packets handed out, News the subset that had to be
	// freshly allocated (Gets - News came from the freelist).
	Gets, News uint64
	// Recycled counts packets returned.
	Recycled uint64
	// HighWater is the maximum number of packets simultaneously live
	// (handed out and not yet recycled); it bounds the pool's retained
	// storage and is the in-flight high-water mark of the owning source.
	HighWater uint64
}

// Get returns a packet for a new lifetime: fields zeroed, flit storage
// retained from the previous lifetime when available.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	if live := pl.Gets - pl.Recycled; live > pl.HighWater {
		pl.HighWater = live
	}
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{pool: pl, gen: p.gen, flitBuf: p.flitBuf, flitPtrs: p.flitPtrs}
		return p
	}
	pl.News++
	return &Packet{pool: pl}
}

// Recycle returns a packet (and its flit storage) to the pool it came
// from. Packets that never came from a pool are ignored, so sinks may
// call it unconditionally. Recycling the same lifetime twice panics: that
// is a flit-ownership violation, not a runtime condition.
func Recycle(p *Packet) {
	if p == nil || p.pool == nil {
		return
	}
	if p.freed {
		panic("noc: packet recycled twice")
	}
	if p.pool.Tap.Wants(EvRecycle) {
		p.pool.Tap.Emit(Event{Kind: EvRecycle, Pkt: p})
	}
	p.freed = true
	p.gen++
	p.pool.Recycled++
	p.pool.free = append(p.pool.free, p)
}

// FlitsOf materializes the flit sequence for p in the packet's own
// storage, reusing it across lifetimes when p is pooled. The returned
// slice and the flits it points to are owned by the packet and valid
// until Recycle; callers that need storage surviving the packet must use
// MakeFlits instead.
func FlitsOf(p *Packet) []*Flit {
	n := p.NumFlits
	if cap(p.flitBuf) < n {
		p.flitBuf = make([]Flit, n)
		p.flitPtrs = make([]*Flit, n)
	}
	buf := p.flitBuf[:n]
	ptrs := p.flitPtrs[:n]
	for i := range buf {
		buf[i] = Flit{Pkt: p, Seq: i, Type: flitTypeAt(i, n), gen: p.gen}
		ptrs[i] = &buf[i]
	}
	return ptrs
}

// flitTypeAt returns the flit type for position i of an n-flit packet.
func flitTypeAt(i, n int) FlitType {
	switch {
	case n == 1:
		return HeadTail
	case i == 0:
		return Head
	case i == n-1:
		return Tail
	}
	return Body
}
