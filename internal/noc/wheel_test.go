package noc

import (
	"testing"

	"ownsim/internal/sim"
)

// Flits due on the same cycle land in the order their wires joined the
// wheel, whatever order they were sent in, and the credits due then land
// after them.
func TestWheelDeliversInWireOrder(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	var wh Wheel
	wires := make([]*Wire, 70) // two bitmap words
	for i := range wires {
		wires[i] = NewWire(cap, i, cap, i, 2, 2)
		wh.Add(wires[i])
	}
	wh.Tick(0)
	for i := len(wires) - 1; i >= 0; i-- {
		wires[i].Send(&Flit{Seq: i})
		wires[i].ReturnCredit(i % 4)
	}
	for now = 1; now <= 3; now++ {
		wh.Tick(now)
	}
	if len(cap.flits) != len(wires) || len(cap.credits) != len(wires) {
		t.Fatalf("delivered %d flits and %d credits, want %d each", len(cap.flits), len(cap.credits), len(wires))
	}
	for i, d := range cap.flits {
		if d.port != i || d.f.Seq != i || d.cycle != 2 {
			t.Fatalf("flit %d: port %d seq %d at cycle %d, want port %d seq %d at cycle 2", i, d.port, d.f.Seq, d.cycle, i, i)
		}
	}
	for _, c := range cap.credits {
		if c.cycle != 2 || c.vc != c.port%4 {
			t.Fatalf("credit for port %d: vc %d at cycle %d, want vc %d at cycle 2", c.port, c.vc, c.cycle, c.port%4)
		}
	}
}

// p-Clos-1024's shape: 130-cycle links with 2-cycle credits and 1-cycle
// terminal wires on one wheel. Every flit and credit lands exactly its
// delay after it was sent, over many laps of the wheel's slots.
func TestWheelLongestDelay(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	var wh Wheel
	delays := [][2]int{{1, 1}, {130, 2}, {1, 1}, {2, 130}}
	for i, d := range delays {
		wh.Add(NewWire(cap, i, cap, i, d[0], d[1]))
	}
	sent := 0
	for ; now < 1200; now++ {
		wh.Tick(now)
		if now < 1000 && now%7 != 3 {
			sent++
			for _, w := range wh.wires {
				w.Send(&Flit{Seq: int(now)})
				w.ReturnCredit(int(now)) // the VC field carries the cycle
			}
		}
	}
	if wh.mask != 255 {
		t.Fatalf("%d slots, want 256: the smallest power of two above 130", wh.mask+1)
	}
	if len(cap.flits) != sent*len(delays) || len(cap.credits) != sent*len(delays) {
		t.Fatalf("delivered %d flits and %d credits, want %d each", len(cap.flits), len(cap.credits), sent*len(delays))
	}
	for _, d := range cap.flits {
		if want := uint64(d.f.Seq + delays[d.port][0]); d.cycle != want {
			t.Fatalf("port %d: flit sent at %d landed at %d, want %d", d.port, d.f.Seq, d.cycle, want)
		}
	}
	for _, c := range cap.credits {
		if want := uint64(c.vc + delays[c.port][1]); c.cycle != want {
			t.Fatalf("port %d: credit returned at %d landed at %d, want %d", c.port, c.vc, c.cycle, want)
		}
	}
}

// A registered wheel sleeps when nothing is in flight, wakes on a send,
// and under reference mode ticks every cycle to the same deliveries.
func TestWheelSleepsWhenNothingInFlight(t *testing.T) {
	for _, reference := range []bool{false, true} {
		e := sim.NewEngine()
		if reference {
			e.DisableSleep()
		}
		var now uint64
		cap := &captureReceiver{now: &now}
		var wh Wheel
		w := NewWire(cap, 0, cap, 0, 3, 1)
		wh.Add(w)
		wh.SetWaker(e.RegisterWakeable(sim.PhaseDelivery, &wh))
		e.Step()
		if got := e.Awake(sim.PhaseDelivery); got != b2i(reference) {
			t.Fatalf("reference=%v: %d awake with nothing in flight", reference, got)
		}
		w.Send(&Flit{})
		w.ReturnCredit(0)
		if e.Awake(sim.PhaseDelivery) != 1 {
			t.Fatalf("reference=%v: a send did not wake the wheel", reference)
		}
		for now = e.Cycle(); now < 10; now = e.Cycle() {
			e.Step()
		}
		if len(cap.flits) != 1 || cap.flits[0].cycle != 4 || len(cap.credits) != 1 || cap.credits[0].cycle != 2 {
			t.Fatalf("reference=%v: flits %+v credits %+v, want one flit at 4 and one credit at 2", reference, cap.flits, cap.credits)
		}
		if got, want := e.PhaseStats(sim.PhaseDelivery).Ticks, uint64(10); reference != (got == want) || got < 4 {
			t.Fatalf("reference=%v: %d ticks in 10 cycles", reference, got)
		}
		if got := e.Awake(sim.PhaseDelivery); got != b2i(reference) {
			t.Fatalf("reference=%v: %d awake after the deliveries", reference, got)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
