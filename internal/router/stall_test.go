package router

import (
	"reflect"
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/probe"
	"ownsim/internal/sim"
)

// stallRig is one router on a bare engine: nIn single-VC input ports all
// routed to output port nIn, whose conduit records every forwarded flit.
// The test plays the delivery phase by hand — ReceiveFlit/ReceiveCredit
// between Steps land before the router's tick of that cycle — and the rig
// records the cycles the router was ticked on.
type stallRig struct {
	eng   *sim.Engine
	r     *Router
	out   int
	ticks []uint64
	sent  []sentFlit
}

type sentFlit struct {
	Cycle uint64
	Pkt   uint64
	Seq   int
}

func (s *stallRig) Tick(c uint64) {
	s.ticks = append(s.ticks, c)
	s.r.Tick(c)
}

func (s *stallRig) Send(f *noc.Flit) {
	s.sent = append(s.sent, sentFlit{s.eng.Cycle(), f.Pkt.ID, f.Seq})
}

func newStallRig(nIn, credits, serializeCy int, disableSleep bool) *stallRig {
	s := &stallRig{eng: sim.NewEngine(), out: nIn}
	if disableSleep {
		s.eng.DisableSleep()
	}
	s.r = New(Config{NumPorts: nIn + 1, NumVCs: 1, BufDepth: 4,
		Route: func(*noc.Packet, int) (int, uint32) { return nIn, 1 }})
	for p := 0; p < nIn; p++ {
		s.r.ConnectInput(p, noc.NullCreditReturner{})
	}
	s.r.ConnectOutput(nIn, s, credits, serializeCy)
	s.r.SetWaker(s.eng.RegisterWakeable(sim.PhaseCompute, s))
	return s
}

// deliver hands a whole packet to input port p before the next Step.
func (s *stallRig) deliver(p int, id uint64, flits int) {
	for _, f := range noc.MakeFlits(&noc.Packet{ID: id, NumFlits: flits}) {
		s.r.ReceiveFlit(p, f)
	}
}

func (s *stallRig) runTo(cycle uint64) {
	for s.eng.Cycle() < cycle {
		s.eng.Step()
	}
}

func (s *stallRig) mustBeConsistent(t *testing.T) {
	t.Helper()
	if err := s.r.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", s.eng.Cycle(), err)
	}
}

// RC, VCA and SA take ticks 0..2; tick 3 finds the body flit without a
// credit, moves nothing, and the router sleeps until the credit lands.
func TestStalledRouterWakesOnTheCredit(t *testing.T) {
	s := newStallRig(1, 1, 1, false)
	s.deliver(0, 1, 2)
	s.runTo(10)
	s.mustBeConsistent(t) // asleep, and stuck for a reason
	s.r.ReceiveCredit(s.out, 0)
	s.mustBeConsistent(t) // the credit woke it
	s.runTo(20)
	if want := []uint64{0, 1, 2, 3, 10}; !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("router ticked on %v, want %v", s.ticks, want)
	}
	if want := []sentFlit{{2, 1, 0}, {10, 1, 1}}; !reflect.DeepEqual(s.sent, want) {
		t.Fatalf("forwarded %v, want %v", s.sent, want)
	}
}

// The head's grant at tick 2 holds the output until cycle 7; tick 3 finds
// the body busy-blocked with a credit in hand and sleeps until exactly 7.
func TestStalledRouterWakesAtBusyUntil(t *testing.T) {
	s := newStallRig(1, 4, 5, false)
	s.deliver(0, 1, 2)
	s.runTo(5)
	s.mustBeConsistent(t)
	s.runTo(20)
	if want := []uint64{0, 1, 2, 3, 7}; !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("router ticked on %v, want %v", s.ticks, want)
	}
	if want := []sentFlit{{2, 1, 0}, {7, 1, 1}}; !reflect.DeepEqual(s.sent, want) {
		t.Fatalf("forwarded %v, want %v", s.sent, want)
	}
}

// contend plays three two-flit packets on three inputs against one output
// VC with three credits and four-cycle serialization, so the router
// stalls on busyUntil and then on a credit while two packets still wait
// for the output VC. Which of them wins it depends on vcaPtr at the
// cycle it frees.
func contend(disableSleep bool, pc Counters) *stallRig {
	s := newStallRig(3, 3, 4, disableSleep)
	s.r.PC = pc
	for p := 0; p < 3; p++ {
		s.deliver(p, uint64(p+1), 2)
	}
	for _, at := range []uint64{25, 31, 32} {
		s.runTo(at)
		s.r.ReceiveCredit(s.out, 0)
	}
	s.runTo(60)
	return s
}

// The one thing a no-op tick changes is vcaPtr; a router that slept
// through such ticks must wake with it advanced by the cycles skipped, or
// the next VC allocation starts its round-robin somewhere else.
func TestStalledRouterKeepsVCAOrder(t *testing.T) {
	ref, got := contend(true, Counters{}), contend(false, Counters{})
	if len(ref.sent) != 6 || ref.r.BufferedFlits() != 0 {
		t.Fatalf("reference forwarded %v, want all 6 flits", ref.sent)
	}
	if !reflect.DeepEqual(got.sent, ref.sent) {
		t.Errorf("grants diverge from per-cycle ticking:\n got  %v\n want %v", got.sent, ref.sent)
	}
	if got.r.vcaPtr != ref.r.vcaPtr {
		t.Errorf("vcaPtr = %d, want %d as under per-cycle ticking", got.r.vcaPtr, ref.r.vcaPtr)
	}
	if len(got.ticks) >= len(ref.ticks)/2 {
		t.Errorf("router ticked %d times against %d per-cycle: it did not sleep through its stalls", len(got.ticks), len(ref.ticks))
	}
}

// The stall counters are defined per blocked candidate per cycle, so a
// router that carries them keeps ticking and counts what the per-cycle
// schedule counts.
func TestStallCountersKeepPerCycleMeaning(t *testing.T) {
	counters := func() Counters {
		reg := probe.NewRegistry()
		return Counters{CreditStall: reg.Counter("credit_stall"), BusyStall: reg.Counter("busy_stall")}
	}
	refPC, gotPC := counters(), counters()
	ref, got := contend(true, refPC), contend(false, gotPC)
	if !reflect.DeepEqual(got.sent, ref.sent) {
		t.Errorf("grants diverge from per-cycle ticking:\n got  %v\n want %v", got.sent, ref.sent)
	}
	if refPC.CreditStall.Value() == 0 || refPC.BusyStall.Value() == 0 {
		t.Fatalf("script stalled on neither credits (%d) nor busy outputs (%d)", refPC.CreditStall.Value(), refPC.BusyStall.Value())
	}
	if g, w := gotPC.CreditStall.Value(), refPC.CreditStall.Value(); g != w {
		t.Errorf("CreditStall = %d, want %d", g, w)
	}
	if g, w := gotPC.BusyStall.Value(), refPC.BusyStall.Value(); g != w {
		t.Errorf("BusyStall = %d, want %d", g, w)
	}
}

// A wake that a later change forgets must surface as a named violation:
// a credit that appears without ReceiveCredit leaves the router asleep
// next to a flit that could move.
func TestCheckInvariantsReportsLostWakeup(t *testing.T) {
	s := newStallRig(1, 1, 1, false)
	s.deliver(0, 1, 2)
	s.runTo(10)
	s.mustBeConsistent(t)
	s.r.out[s.out].credits[0]++ // behind the router's back
	err := s.r.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("CheckInvariants = %v, want a lost-wakeup error", err)
	}
}
