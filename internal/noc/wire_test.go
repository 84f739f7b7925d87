package noc

import "testing"

type captureReceiver struct {
	flits []struct {
		port  int
		f     *Flit
		cycle uint64
	}
	credits []struct {
		port, vc int
		cycle    uint64
	}
	now *uint64
}

func (c *captureReceiver) ReceiveFlit(port int, f *Flit) {
	c.flits = append(c.flits, struct {
		port  int
		f     *Flit
		cycle uint64
	}{port, f, *c.now})
}

func (c *captureReceiver) ReceiveCredit(port, vc int) {
	c.credits = append(c.credits, struct {
		port, vc int
		cycle    uint64
	}{port, vc, *c.now})
}

func TestWireFlitDelay(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 0, cap, 3, 4, 1)
	f := &Flit{Pkt: &Packet{ID: 1}}

	// Cycle 0: delivery tick, then "compute" sends.
	w.Tick(0)
	w.Send(f)
	for now = 1; now <= 10; now++ {
		w.Tick(now)
	}
	if len(cap.flits) != 1 {
		t.Fatalf("delivered %d flits", len(cap.flits))
	}
	got := cap.flits[0]
	if got.cycle != 4 || got.port != 3 || got.f != f {
		t.Fatalf("delivered at cycle %d port %d, want cycle 4 port 3", got.cycle, got.port)
	}
}

func TestWireCreditDelay(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 7, cap, 0, 1, 3)
	w.Tick(0)
	w.ReturnCredit(2)
	for now = 1; now <= 5; now++ {
		w.Tick(now)
	}
	if len(cap.credits) != 1 {
		t.Fatalf("delivered %d credits", len(cap.credits))
	}
	got := cap.credits[0]
	if got.cycle != 3 || got.port != 7 || got.vc != 2 {
		t.Fatalf("credit at cycle %d port %d vc %d, want 3/7/2", got.cycle, got.port, got.vc)
	}
}

func TestWireFIFOOrder(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 0, cap, 0, 2, 1)
	var sent []*Flit
	for i := 0; i < 20; i++ {
		w.Tick(now)
		f := &Flit{Seq: i}
		w.Send(f)
		sent = append(sent, f)
		now++
	}
	for ; now < 30; now++ {
		w.Tick(now)
	}
	if len(cap.flits) != 20 {
		t.Fatalf("delivered %d flits, want 20", len(cap.flits))
	}
	for i, d := range cap.flits {
		if d.f != sent[i] {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestWireMinimumDelayClamp(t *testing.T) {
	w := NewWire(nil, 0, nil, 0, 0, -5)
	if w.Delay != 1 || w.CreditDelay != 1 {
		t.Fatalf("delays not clamped: %d %d", w.Delay, w.CreditDelay)
	}
}

// Delivered counts flits at hand-over, not at Send: it is the count the
// power meter prices link traversal from.
func TestWireDeliveredCount(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 0, cap, 0, 1, 1)
	w.Tick(0)
	w.Send(&Flit{})
	w.Send(&Flit{})
	if w.Delivered != 0 {
		t.Fatalf("Delivered = %d before the delivering tick, want 0", w.Delivered)
	}
	now = 1
	w.Tick(1)
	if w.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", w.Delivered)
	}
}

// Three flits sent on one cycle stay in flight for the whole delay and
// land together.
func TestWireInFlight(t *testing.T) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 0, cap, 0, 5, 1)
	w.Tick(0)
	for i := 0; i < 3; i++ {
		w.Send(&Flit{})
	}
	for now = 1; now <= 5; now++ {
		if w.Delivered != 0 {
			t.Fatalf("Delivered = %d before cycle %d, want 0", w.Delivered, now)
		}
		w.Tick(now)
	}
	if w.Delivered != 3 || len(cap.flits) != 3 || cap.flits[2].cycle != 5 {
		t.Fatalf("Delivered = %d, want 3 at cycle 5: %+v", w.Delivered, cap.flits)
	}
}

func TestQueueGrowthPreservesOrder(t *testing.T) {
	var q TimedQueue[*Flit]
	// Interleave pushes and pops to force wraparound + growth.
	next := 0
	popped := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 7; i++ {
			q.Push(uint64(next), &Flit{Seq: next})
			next++
		}
		for i := 0; i < 3; i++ {
			e, ok := q.Peek()
			if !ok || e.V.Seq != popped {
				t.Fatalf("pop %d: got %v", popped, e)
			}
			q.Pop()
			popped++
		}
	}
	for q.Len() > 0 {
		e, _ := q.Peek()
		if e.V.Seq != popped {
			t.Fatalf("drain pop %d mismatch", popped)
		}
		q.Pop()
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d, pushed %d", popped, next)
	}
}

func BenchmarkWireTick(b *testing.B) {
	var now uint64
	cap := &captureReceiver{now: &now}
	w := NewWire(cap, 0, cap, 0, 2, 1)
	f := &Flit{Pkt: &Packet{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			w.Send(f)
		}
		w.Tick(now)
		now++
		if len(cap.flits) > 1024 {
			cap.flits = cap.flits[:0]
		}
	}
}
