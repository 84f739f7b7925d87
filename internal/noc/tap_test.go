package noc

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestZeroTapWantsNothing(t *testing.T) {
	var tap Tap
	for k := EventKind(0); k < NumEventKinds; k++ {
		if tap.Wants(k) {
			t.Errorf("zero Tap wants kind %d", k)
		}
	}
	tap.Emit(Event{Kind: EvGrant}) // no subscribers: a no-op, not a panic
	// A mask padded to a word and a slice header: four words, 32 bytes on
	// a 64-bit platform (five components embed one each).
	if got, want := unsafe.Sizeof(tap), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("zero Tap is %d bytes, want %d", got, want)
	}
}

func TestTapRoutesByMask(t *testing.T) {
	var tap Tap
	var grants, delivers []Event
	tap.Subscribe(Mask(EvGrant, EvRelease), func(e Event) { grants = append(grants, e) })
	tap.Subscribe(Mask(EvDeliver), func(e Event) { delivers = append(delivers, e) })

	for _, k := range []EventKind{EvGrant, EvRelease, EvDeliver} {
		if !tap.Wants(k) {
			t.Errorf("tap does not want subscribed kind %d", k)
		}
	}
	if tap.Wants(EvFlitTx) || tap.Wants(EvEnqueue) {
		t.Error("tap wants a kind nobody subscribed to")
	}

	p := &Packet{ID: 7}
	tap.Emit(Event{Kind: EvGrant, Cycle: 10, Pkt: p, A: 1, B: 2, C: 3})
	tap.Emit(Event{Kind: EvDeliver, Cycle: 11, Pkt: p, A: 4})
	tap.Emit(Event{Kind: EvRelease, Cycle: 12, Pkt: p, A: 1})
	tap.Emit(Event{Kind: EvFlitTx, Cycle: 13}) // forged: reaches nobody

	want := []Event{
		{Kind: EvGrant, Cycle: 10, Pkt: p, A: 1, B: 2, C: 3},
		{Kind: EvRelease, Cycle: 12, Pkt: p, A: 1},
	}
	if !reflect.DeepEqual(grants, want) {
		t.Errorf("grant/release subscriber saw %+v, want %+v", grants, want)
	}
	if len(delivers) != 1 || delivers[0].A != 4 || delivers[0].Cycle != 11 {
		t.Errorf("deliver subscriber saw %+v, want one EvDeliver{A: 4} at cycle 11", delivers)
	}
}

func TestTapSubscriptionOrder(t *testing.T) {
	var tap Tap
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		mask := Mask(EvEject)
		if i == 2 {
			mask = Mask(EvArrive) // skipped for EvEject without disturbing the rest
		}
		tap.Subscribe(mask, func(Event) { order = append(order, i) })
	}
	tap.Emit(Event{Kind: EvEject})
	if want := []int{0, 1, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("subscribers ran in order %v, want %v", order, want)
	}
}

func TestTapEmitAllocFree(t *testing.T) {
	var tap Tap
	var sum [3]uint64
	for i := range sum {
		i := i
		tap.Subscribe(Mask(EvSwitch), func(e Event) { sum[i] += e.Cycle + uint64(e.A) })
	}
	f := MakeFlits(&Packet{ID: 1, NumFlits: 1})[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if tap.Wants(EvSwitch) {
			tap.Emit(Event{Kind: EvSwitch, Cycle: 5, Pkt: f.Pkt, Flit: f, A: 1, B: 2, C: 3})
		}
	}); allocs != 0 {
		t.Errorf("Emit to three subscribers allocates %v per event, want 0", allocs)
	}
	if sum[0] == 0 || sum[0] != sum[2] {
		t.Errorf("subscribers saw sums %v, want three equal nonzero sums", sum)
	}
}
