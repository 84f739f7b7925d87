package router

import (
	"reflect"
	"strings"
	"testing"

	"ownsim/internal/noc"
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
		s.r.ConnectInput(p, nullCreditReturner{})
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

// RC, VCA and SA take ticks 0..2; the grant of tick 2 takes the only
// credit, so that tick already knows the body cannot follow on cycle 3 and
// the router sleeps until the credit lands.
func TestStalledRouterWakesOnTheCredit(t *testing.T) {
	s := newStallRig(1, 1, 1, false)
	s.deliver(0, 1, 2)
	s.runTo(10)
	s.mustBeConsistent(t) // asleep, and stuck for a reason
	s.r.ReceiveCredit(s.out, 0)
	s.mustBeConsistent(t) // the credit woke it
	s.runTo(20)
	if want := []uint64{0, 1, 2, 10}; !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("router ticked on %v, want %v", s.ticks, want)
	}
	if want := []sentFlit{{2, 1, 0}, {10, 1, 1}}; !reflect.DeepEqual(s.sent, want) {
		t.Fatalf("forwarded %v, want %v", s.sent, want)
	}
}

// The head's grant at tick 2 holds the output until cycle 7; the body has
// a credit in hand, so the router sleeps from that tick until exactly 7.
func TestStalledRouterWakesAtBusyUntil(t *testing.T) {
	s := newStallRig(1, 4, 5, false)
	s.deliver(0, 1, 2)
	s.runTo(5)
	s.mustBeConsistent(t)
	s.runTo(20)
	if want := []uint64{0, 1, 2, 7}; !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("router ticked on %v, want %v", s.ticks, want)
	}
	if want := []sentFlit{{2, 1, 0}, {7, 1, 1}}; !reflect.DeepEqual(s.sent, want) {
		t.Fatalf("forwarded %v, want %v", s.sent, want)
	}
}

// A tick that moved something sleeps only if the next one cannot. Each
// case leaves exactly one reason to stay awake after a grant, and a router
// that slept anyway would never wake: nothing external is coming.
func TestRouterStaysAwakeWhileTheNextTickCanMove(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nIn       int
		deliver   func(*stallRig)
		wantTicks []uint64
		wantSent  []sentFlit
	}{
		// Packet 2's head sits behind packet 1's tail in one VC: the tick
		// that grants the tail routes the head, which then waits for an
		// output VC that is free.
		{"fresh route finds a free output VC", 1,
			func(s *stallRig) { s.deliver(0, 1, 1); s.deliver(0, 2, 1) },
			[]uint64{0, 1, 2, 3, 4}, []sentFlit{{2, 1, 0}, {4, 2, 0}}},
		// Two packets want the one output VC: the tick that grants the
		// winner's tail hands the VC to the other, a candidate next tick.
		{"freed output VC goes to the waiting packet", 2,
			func(s *stallRig) { s.deliver(0, 1, 1); s.deliver(1, 2, 1) },
			[]uint64{0, 1, 2, 3}, []sentFlit{{2, 2, 0}, {3, 1, 0}}},
		// The body has a credit and the output is free again on cycle 3.
		{"active VC has output and credit", 1,
			func(s *stallRig) { s.deliver(0, 1, 2) },
			[]uint64{0, 1, 2, 3}, []sentFlit{{2, 1, 0}, {3, 1, 1}}},
	} {
		s := newStallRig(tc.nIn, 4, 1, false)
		tc.deliver(s)
		s.runTo(20)
		s.mustBeConsistent(t)
		if !reflect.DeepEqual(s.ticks, tc.wantTicks) || !reflect.DeepEqual(s.sent, tc.wantSent) {
			t.Errorf("%s: ticked on %v, forwarded %v; want %v and %v", tc.name, s.ticks, s.sent, tc.wantTicks, tc.wantSent)
		}
	}
}

// A radix-70 router granting outputs 65, 3 and 40 in one tick, found in
// that order, emits the grants by ascending output port, and the
// allocator's per-port scratch is back to all-nil after every tick: it is
// cleared as it is consumed, never swept.
func TestSwitchGrantsGoOutInOutputPortOrder(t *testing.T) {
	r := New(Config{NumPorts: 70, NumVCs: 1, BufDepth: 4,
		Route: func(p *noc.Packet, _ int) (int, uint32) { return p.Dst, 1 }})
	var granted []int
	r.Tap.Subscribe(noc.Mask(noc.EvSwitch), func(e noc.Event) { granted = append(granted, e.B) })
	for in, out := range []int{65, 3, 40} {
		r.ConnectInput(in, nullCreditReturner{})
		r.ConnectOutput(out, &stallRig{eng: sim.NewEngine()}, 4, 1)
		r.ReceiveFlit(in, noc.MakeFlits(&noc.Packet{ID: uint64(in + 1), Dst: out, NumFlits: 1})[0])
	}
	for c := uint64(0); c < 4; c++ {
		r.Tick(c)
		for _, ip := range r.in {
			if ip.best != nil {
				t.Fatalf("after tick %d: allocator scratch of input %d is not nil", c, ip.port)
			}
		}
		for p, op := range r.out {
			if op.best != nil {
				t.Fatalf("after tick %d: allocator scratch of output %d is not nil", c, p)
			}
		}
		if len(r.outReq) != 0 {
			t.Fatalf("after tick %d: request list %v is not empty", c, r.outReq)
		}
	}
	if want := []int{3, 40, 65}; !reflect.DeepEqual(granted, want) || r.Counts().SAGrants != 3 {
		t.Fatalf("grants went out on outputs %v, want %v", granted, want)
	}
}

// A script is a delivery-phase schedule: what lands on the router before
// its tick of cycle at.
type step struct {
	at uint64
	do func(*stallRig)
}

func credit(at uint64) step { return step{at, func(s *stallRig) { s.r.ReceiveCredit(s.out, 0) }} }

// play runs a script to cycle end on a stall-counting rig and reads
// Counts every readEvery cycles, between steps.
func play(nIn, credits, serializeCy int, script []step, end uint64, disableSleep bool, readEvery uint64) (*stallRig, []Counts) {
	s := newStallRig(nIn, credits, serializeCy, disableSleep)
	s.r.CountStalls()
	var reads []Counts
	for c := uint64(0); c < end; c++ {
		for _, st := range script {
			if st.at == c {
				st.do(s)
			}
		}
		s.eng.Step()
		if (c+1)%readEvery == 0 {
			reads = append(reads, s.r.Counts())
		}
	}
	return s, reads
}

// contend plays three two-flit packets on three inputs against one output
// VC with three credits and four-cycle serialization, so the router
// stalls on busyUntil and then on a credit while two packets still wait
// for the output VC. Which of them wins it depends on vcaPtr at the
// cycle it frees.
var contendScript = []step{
	{0, func(s *stallRig) {
		for p := 0; p < 3; p++ {
			s.deliver(p, uint64(p+1), 2)
		}
	}},
	credit(25), credit(31), credit(32),
}

func contend(disableSleep bool, readEvery uint64) (*stallRig, []Counts) {
	return play(3, 3, 4, contendScript, 60, disableSleep, readEvery)
}

// The one thing a no-op tick changes is vcaPtr; a router that slept
// through such ticks must wake with it advanced by the cycles skipped, or
// the next VC allocation starts its round-robin somewhere else.
func TestStalledRouterKeepsVCAOrder(t *testing.T) {
	ref, _ := contend(true, 60)
	got, _ := contend(false, 60)
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

// The stall counts are defined per blocked candidate per cycle. A router
// that sleeps through its stalls charges them by interval, and whenever
// they are read — after every cycle, mid-stall included, or only across
// the credits and flits that end a stall — they are what per-cycle
// ticking counts.
func TestStallCountsMatchPerCycleTickingWheneverRead(t *testing.T) {
	// gap: packet 1's head leaves on the only credit and its VC runs
	// empty holding the output VC; packet 2 stalls the router behind it.
	// The body lands mid-stall in a VC that was no candidate until then.
	gap := []step{
		{0, func(s *stallRig) { s.r.ReceiveFlit(0, noc.MakeFlits(&noc.Packet{ID: 1, NumFlits: 2})[0]) }},
		{1, func(s *stallRig) { s.deliver(1, 2, 2) }},
		{12, func(s *stallRig) {
			body := noc.MakeFlits(&noc.Packet{ID: 1, NumFlits: 2})[1]
			s.r.ReceiveFlit(0, body)
		}},
		credit(20), credit(21), credit(30), credit(31),
	}
	// grant: every tick that grants knows the next one cannot — the
	// output stays busy for three cycles, then the credits are gone — so
	// each stall is slept from the tick of the grant on.
	grant := []step{{0, func(s *stallRig) { s.deliver(0, 1, 3) }}, credit(20)}
	for _, tc := range []struct {
		name                      string
		nIn, credits, serializeCy int
		script                    []step
		wantSent                  int
	}{
		{"contend", 3, 3, 4, contendScript, 6},
		{"gap", 2, 1, 3, gap, 4},
		{"grant", 1, 2, 3, grant, 3},
	} {
		for _, readEvery := range []uint64{1, 7, 60} {
			ref, want := play(tc.nIn, tc.credits, tc.serializeCy, tc.script, 60, true, readEvery)
			got, have := play(tc.nIn, tc.credits, tc.serializeCy, tc.script, 60, false, readEvery)
			if len(ref.sent) != tc.wantSent || !reflect.DeepEqual(got.sent, ref.sent) {
				t.Fatalf("%s: forwarded %v, per-cycle twin %v, want %d flits on both", tc.name, got.sent, ref.sent, tc.wantSent)
			}
			for i := range want {
				if have[i] != want[i] {
					t.Fatalf("%s, read every %d: after cycle %d Counts = %+v, per-cycle twin %+v",
						tc.name, readEvery, (uint64(i)+1)*readEvery-1, have[i], want[i])
				}
			}
			last := want[len(want)-1]
			if last.BusyStall == 0 || last.CreditStall == 0 || last.SAGrants != uint64(tc.wantSent) {
				t.Fatalf("%s: script ends with %+v: it must stall on both busy outputs and credits", tc.name, last)
			}
			if len(got.ticks) >= len(ref.ticks)/2 {
				t.Errorf("%s: router ticked %d times against %d per-cycle: counting kept it awake", tc.name, len(got.ticks), len(ref.ticks))
			}
		}
	}
}

// Stall counting is off until CountStalls: grants are always counted, a
// stall never is, and reading changes nothing about the schedule.
func TestStallCountsOffByDefault(t *testing.T) {
	s := newStallRig(1, 1, 1, false)
	s.deliver(0, 1, 2)
	s.runTo(10)
	if c := s.r.Counts(); c != (Counts{SAGrants: 1, VCAllocs: 1}) {
		t.Fatalf("Counts = %+v, want one grant, one VC allocation and no stall", c)
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
	s.r.outCredits(s.out)[0]++ // behind the router's back
	err := s.r.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("CheckInvariants = %v, want a lost-wakeup error", err)
	}
}

// sourceRig is one source on a bare engine with a generator that emits a
// five-flit packet every 100 cycles; the test plays the credit wire by
// hand and the rig records the cycles the source was ticked on.
type sourceRig struct {
	eng   *sim.Engine
	src   *Source
	gen   *gapGen
	ticks []uint64
	sent  []uint64
}

func (s *sourceRig) Tick(c uint64) {
	s.ticks = append(s.ticks, c)
	s.src.Tick(c)
}

func (s *sourceRig) Send(*noc.Flit) { s.sent = append(s.sent, s.eng.Cycle()) }

func newSourceRig(credits int, disableSleep bool) *sourceRig {
	s := &sourceRig{eng: sim.NewEngine(), gen: &gapGen{period: 100, flits: 5}}
	if disableSleep {
		s.eng.DisableSleep()
	}
	s.src = NewSource(5, s, 1, credits)
	s.src.SetWaker(s.eng.RegisterWakeable(sim.PhaseCompute, s))
	s.src.SetGenerator(s.gen)
	return s
}

// A source that ran out of credits mid-packet sleeps until one lands: it
// ticks on the cycles it sends, the cycle of the credit and its next
// generation cycle, and on no other. The reference schedule sends on the
// same cycles without ever asking the generator to look ahead.
func TestBlockedSourceSleepsUntilTheCredit(t *testing.T) {
	run := func(disableSleep bool) *sourceRig {
		s := newSourceRig(4, disableSleep)
		s.eng.Run(50)
		if err := s.src.CheckInvariants(); err != nil {
			t.Fatal(err) // asleep, busy, and blocked
		}
		s.src.ReceiveCredit(0, 0)
		if err := s.src.CheckInvariants(); err != nil {
			t.Fatal(err) // the credit woke it
		}
		s.eng.Run(100)
		return s
	}
	got, ref := run(false), run(true)
	if want := []uint64{0, 1, 2, 3, 50}; !reflect.DeepEqual(got.sent, want) || !reflect.DeepEqual(ref.sent, want) {
		t.Fatalf("flits left on %v, per-cycle twin %v, want %v", got.sent, ref.sent, want)
	}
	if want := []uint64{0, 1, 2, 3, 50, 100}; !reflect.DeepEqual(got.ticks, want) {
		t.Fatalf("source ticked on %v, want %v", got.ticks, want)
	}
	if len(ref.ticks) != 150 || ref.gen.asksNP != 0 {
		t.Fatalf("DisableSleep twin: %d ticks, %d NextPending calls; want 150 and 0", len(ref.ticks), ref.gen.asksNP)
	}
}

// A source whose queued packet finds no VC with a credit is blocked just
// the same, and a credit that appears without ReceiveCredit is a lost
// wakeup CheckInvariants names.
func TestSourceCheckInvariantsReportsLostWakeup(t *testing.T) {
	s := newSourceRig(5, false)
	s.eng.Run(150) // packet 1 took all five credits; packet 2 waits in the queue
	if !s.src.Busy() || s.src.Injected != 1 {
		t.Fatalf("busy %v, injected %d; want packet 2 queued behind an empty VC", s.src.Busy(), s.src.Injected)
	}
	if err := s.src.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 1, 2, 3, 4, 100}; !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("source ticked on %v, want %v", s.ticks, want)
	}
	s.src.credits[0]++ // behind the source's back
	err := s.src.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "asleep") {
		t.Fatalf("CheckInvariants = %v, want a lost-wakeup error", err)
	}
}
