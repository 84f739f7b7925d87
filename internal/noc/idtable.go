package noc

import "math/bits"

// IDTable maps packet IDs to per-packet state, as a map[uint64]*T would.
// Observers that keep state per live packet (the conformance checker's
// ledger, the probe's latency spans) look it up here a few times per
// packet, so no Go map sits on an event path.
//
// It is an open-addressing table with linear probing: each slot stores
// its ID beside the pointer (nil marks an empty slot), a delete shifts the
// rest of its probe cluster back (no tombstones), and the table doubles
// when it is three quarters full, so holding n IDs at once costs O(log n)
// growths over a run. IDs are mixed by a multiplicative hash, so no ID
// layout is assumed. The zero IDTable is empty and ready to use; it is not
// safe for concurrent use.
type IDTable[T any] struct {
	slots []idSlot[T]
	n     int
	shift uint // 64 − log2(len(slots))
}

type idSlot[T any] struct {
	id uint64
	p  *T
}

// idTableMinSlots is the table's size at its first insertion.
const idTableMinSlots = 64

// home returns id's preferred slot: the top bits of a Fibonacci hash.
func (t *IDTable[T]) home(id uint64) int { return int((id * 0x9e3779b97f4a7c15) >> t.shift) }

// Len returns the number of IDs held.
func (t *IDTable[T]) Len() int { return t.n }

// find returns the slot holding id, or the empty slot ending its probe.
func (t *IDTable[T]) find(id uint64) int {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].p != nil && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the state stored for id, or nil.
func (t *IDTable[T]) Get(id uint64) *T {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.find(id)].p
}

// Put stores p (not nil) for id, replacing what id held.
func (t *IDTable[T]) Put(id uint64, p *T) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.find(id)]
	if s.p == nil {
		t.n++
	}
	*s = idSlot[T]{id, p}
}

// Delete removes id and returns the state it held, or nil.
func (t *IDTable[T]) Delete(id uint64) *T {
	if t.n == 0 {
		return nil
	}
	i := t.find(id)
	p := t.slots[i].p
	if p == nil {
		return nil
	}
	// Backward shift: a later member of the cluster moves into the hole
	// when the hole lies on its probe path, from its home slot to j.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].p != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot[T]{}
	t.n--
	return p
}

// Range calls fn for every ID held, in slot order (not ID order).
func (t *IDTable[T]) Range(fn func(id uint64, p *T)) {
	for _, s := range t.slots {
		if s.p != nil {
			fn(s.id, s.p)
		}
	}
}

// grow doubles the table and reinserts every ID.
func (t *IDTable[T]) grow() {
	old := t.slots
	size := max(2*len(old), idTableMinSlots)
	t.slots = make([]idSlot[T], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.p != nil {
			t.Put(s.id, s.p)
		}
	}
}
