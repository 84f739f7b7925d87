package probe

import (
	"strings"
	"testing"

	"ownsim/internal/noc"
)

// walkPacket drives one synthetic measured packet through the tracker:
// enqueue at t0, inject after qWait, a couple of router switches, a
// shared-channel hop, a final switch, and ejection. Returns the packet
// and its ejection cycle.
func walkPacket(s *SpanTracker, id uint64) (*noc.Packet, uint64) {
	p := &noc.Packet{ID: id, Measure: true, NumFlits: 2, CreatedAt: 100}
	fl := noc.MakeFlits(p)
	head := fl[0]

	s.Enqueue(p, 100)
	s.Inject(p, 103)    // src_queue += 3
	s.Switch(106, head) // elec += 3
	s.Switch(110, head) // elec += 4
	// Channel hop: head switched into the writer at 110, serialization
	// starts at 115 (token_wait += 5), 2 cy serialize + 6 cy photonic
	// flight pre-attributed; mark lands at 123.
	s.ChannelTx(115, head, ChannelHop{SerializeCy: 2, PropCy: 6, Transit: SpanPhotonic})
	s.Switch(125, head) // elec += 2
	s.Eject(p, 130)     // sink_eject += 5
	return p, 130
}

func TestSpanTrackerTelescopingIdentity(t *testing.T) {
	s := newSpanTracker()
	p, ejectCy := walkPacket(s, 7)

	if s.Mismatches() != 0 {
		t.Fatalf("Mismatches = %d, want 0", s.Mismatches())
	}
	if s.Packets() != 1 {
		t.Fatalf("Packets = %d, want 1", s.Packets())
	}
	wantLat := ejectCy - p.CreatedAt
	if s.LatencyCycles() != wantLat {
		t.Fatalf("LatencyCycles = %d, want %d", s.LatencyCycles(), wantLat)
	}
	if s.TotalPhaseCycles() != wantLat {
		t.Fatalf("TotalPhaseCycles = %d, want %d (identity)", s.TotalPhaseCycles(), wantLat)
	}
	want := map[SpanPhase]uint64{
		SpanSrcQueue:  3,
		SpanElec:      9,
		SpanTokenWait: 5,
		SpanSerialize: 2,
		SpanPhotonic:  6,
		SpanSinkEject: 5,
	}
	for ph := SpanPhase(0); ph < NumSpanPhases; ph++ {
		if got := s.PhaseCycles(ph); got != want[ph] {
			t.Errorf("PhaseCycles(%s) = %d, want %d", ph, got, want[ph])
		}
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d after eject, want 0", s.InFlight())
	}
}

func TestSpanTrackerSWMRResidual(t *testing.T) {
	s := newSpanTracker()
	p := &noc.Packet{ID: 1, Measure: true, NumFlits: 1, CreatedAt: 0}
	head := noc.MakeFlits(p)[0]
	s.Enqueue(p, 0)
	s.Inject(p, 1)
	s.Switch(2, head)
	// SWMR wireless hop: the residual after delivery (mark = 14) up to
	// the next switch is the inter-group forward.
	s.ChannelTx(4, head, ChannelHop{SerializeCy: 8, PropCy: 2, Transit: SpanWirelessE2E, SWMRFwd: true})
	s.Switch(17, head) // swmr_fwd += 3
	s.Eject(p, 19)
	if got := s.PhaseCycles(SpanSWMRFwd); got != 3 {
		t.Errorf("PhaseCycles(swmr_fwd) = %d, want 3", got)
	}
	if got := s.PhaseCycles(SpanWirelessE2E); got != 2 {
		t.Errorf("PhaseCycles(wireless_e2e) = %d, want 2", got)
	}
	if s.Mismatches() != 0 {
		t.Errorf("Mismatches = %d, want 0", s.Mismatches())
	}
	if s.LatencyCycles() != 19 || s.TotalPhaseCycles() != 19 {
		t.Errorf("latency %d / phase sum %d, want 19/19", s.LatencyCycles(), s.TotalPhaseCycles())
	}
}

func TestSpanTrackerIgnoresUnmeasuredAndUnknown(t *testing.T) {
	s := newSpanTracker()
	warm := &noc.Packet{ID: 2, Measure: false, NumFlits: 1, CreatedAt: 0}
	head := noc.MakeFlits(warm)[0]
	s.Enqueue(warm, 0)
	if s.InFlight() != 0 {
		t.Fatalf("unmeasured packet opened a span")
	}
	// Events for packets with no open span (warmup traffic mid-flight)
	// must be ignored, not crash or misattribute.
	s.Inject(warm, 1)
	s.Switch(2, head)
	s.ChannelTx(3, head, ChannelHop{SerializeCy: 1, PropCy: 1, Transit: SpanPhotonic})
	s.Eject(warm, 5)
	if s.Packets() != 0 || s.TotalPhaseCycles() != 0 {
		t.Fatalf("unmeasured packet was attributed: %d packets, %d cy", s.Packets(), s.TotalPhaseCycles())
	}
}

func TestSpanTrackerNilSafe(t *testing.T) {
	var s *SpanTracker
	p := &noc.Packet{ID: 3, Measure: true, NumFlits: 1}
	head := noc.MakeFlits(p)[0]
	s.Enqueue(p, 0)
	s.Inject(p, 1)
	s.Switch(2, head)
	s.ChannelTx(3, head, ChannelHop{SerializeCy: 1, PropCy: 1, Transit: SpanPhotonic})
	s.Eject(p, 5)
	if s.Packets() != 0 || s.LatencyCycles() != 0 || s.Mismatches() != 0 ||
		s.TotalPhaseCycles() != 0 || s.PhaseCycles(SpanElec) != 0 || s.InFlight() != 0 {
		t.Fatal("nil tracker reported nonzero state")
	}
}

// TestTokenLedgerNilSafe: sizing, booking into and reading the token
// ledger of a nil tracker does nothing and reports an empty ledger.
func TestTokenLedgerNilSafe(t *testing.T) {
	var s *SpanTracker
	s.SizeTokenLedger(2, 4, 1)
	p := &noc.Packet{ID: 3, Src: 1, Measure: true, NumFlits: 1}
	head := noc.MakeFlits(p)[0]
	s.Enqueue(p, 0)
	s.ChannelTx(3, head, ChannelHop{Ledger: 1, SerializeCy: 1, PropCy: 1, Transit: SpanPhotonic})
	if s.TokenTiles() != 0 || s.Token(1, 3) != (TokenCell{}) || s.TokenRow(1) != (TokenCell{}) {
		t.Fatal("nil tracker reported a token ledger")
	}
}

// TestTokenLedgerBooksPerChannelAndTile drives head flits through
// ChannelTx and checks the ledger books each charged token wait once,
// under its channel and its packet's source tile (two cores per tile
// here), with the channel's row total beside it. Body flits, unmeasured
// packets and channels outside the ledger book nothing.
func TestTokenLedgerBooksPerChannelAndTile(t *testing.T) {
	s := newSpanTracker()
	s.SizeTokenLedger(2, 4, 2)
	if s.TokenTiles() != 4 {
		t.Fatalf("TokenTiles = %d, want 4", s.TokenTiles())
	}
	id := uint64(0)
	tx := func(ch, src int, measure bool, wait uint64) {
		id++
		p := &noc.Packet{ID: id, Src: src, Measure: measure, NumFlits: 2}
		fl := noc.MakeFlits(p)
		s.Enqueue(p, 100)
		s.ChannelTx(100+wait, fl[0], ChannelHop{Ledger: ch, SerializeCy: 1, PropCy: 1, Transit: SpanPhotonic})
		s.ChannelTx(200, fl[1], ChannelHop{Ledger: ch, SerializeCy: 1, PropCy: 1, Transit: SpanPhotonic}) // the tail
		s.Eject(p, 300)
	}
	tx(0, 0, true, 10)
	tx(0, 1, true, 30) // core 1 shares tile 0 with core 0
	tx(0, 4, true, 0)
	tx(1, 3, true, 5)
	tx(1, 3, false, 99) // unmeasured
	tx(2, 0, true, 7)   // no such channel: charged, not booked

	for _, c := range []struct {
		ch, tile int
		want     TokenCell
	}{
		{0, 0, TokenCell{Acqs: 2, WaitCy: 40, MaxCy: 30}},
		{0, 1, TokenCell{}},
		{0, 2, TokenCell{Acqs: 1}},
		{1, 1, TokenCell{Acqs: 1, WaitCy: 5, MaxCy: 5}},
		{1, 0, TokenCell{}},
	} {
		if got := s.Token(c.ch, c.tile); got != c.want {
			t.Errorf("Token(%d, %d) = %+v, want %+v", c.ch, c.tile, got, c.want)
		}
	}
	if got, want := s.TokenRow(0), (TokenCell{Acqs: 3, WaitCy: 40, MaxCy: 30}); got != want {
		t.Errorf("TokenRow(0) = %+v, want %+v", got, want)
	}
	if got, want := s.TokenRow(1), (TokenCell{Acqs: 1, WaitCy: 5, MaxCy: 5}); got != want {
		t.Errorf("TokenRow(1) = %+v, want %+v", got, want)
	}
	if got := s.PhaseCycles(SpanTokenWait); got != 40+5+7 {
		t.Errorf("token_wait = %d cy, want 52 (the booked 45 and the unbooked 7)", got)
	}
}

// TestChannelTxAllocFree: charging and booking a head flit's token wait
// allocates nothing.
func TestChannelTxAllocFree(t *testing.T) {
	s := newSpanTracker()
	s.SizeTokenLedger(4, 8, 1)
	p := &noc.Packet{ID: 1, Src: 3, Measure: true, NumFlits: 1}
	head := noc.MakeFlits(p)[0]
	s.Enqueue(p, 0)
	hop := ChannelHop{Ledger: 2, SerializeCy: 2, PropCy: 3, Transit: SpanPhotonic}
	if allocs := testing.AllocsPerRun(100, func() {
		s.ChannelTx(17, head, hop)
	}); allocs != 0 {
		t.Errorf("ChannelTx allocates %v per call, want 0", allocs)
	}
	if s.TokenRow(2).Acqs == 0 {
		t.Error("ChannelTx booked nothing")
	}
}

func TestSpanTrackerFreelistReuse(t *testing.T) {
	s := newSpanTracker()
	walkPacket(s, 1)
	if len(s.free) != 1 {
		t.Fatalf("freelist has %d entries after one eject, want 1", len(s.free))
	}
	walkPacket(s, 2)
	if len(s.free) != 1 {
		t.Fatalf("freelist has %d entries after reuse, want 1", len(s.free))
	}
	if s.Packets() != 2 || s.Mismatches() != 0 {
		t.Fatalf("Packets=%d Mismatches=%d, want 2/0", s.Packets(), s.Mismatches())
	}
}

func TestSpanTrackerMismatchDetection(t *testing.T) {
	s := newSpanTracker()
	p := &noc.Packet{ID: 9, Measure: true, NumFlits: 1, CreatedAt: 50}
	s.Enqueue(p, 60) // opened late: 10 cycles unattributable
	s.Inject(p, 61)
	s.Eject(p, 65)
	if s.Mismatches() != 1 {
		t.Fatalf("Mismatches = %d, want 1 for a late-opened span", s.Mismatches())
	}
}

func TestWirelessSpanPhaseMapping(t *testing.T) {
	cases := map[string]SpanPhase{
		"C2C":  SpanWirelessC2C,
		"E2E":  SpanWirelessE2E,
		"SR":   SpanWirelessSR,
		"grid": SpanWireless,
		"":     SpanWireless,
	}
	for class, want := range cases {
		if got := WirelessSpanPhase(class); got != want {
			t.Errorf("WirelessSpanPhase(%q) = %v, want %v", class, got, want)
		}
	}
}

func TestSpanCSV(t *testing.T) {
	s := newSpanTracker()
	walkPacket(s, 4)

	var csvb strings.Builder
	if err := s.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csvb.String(), "\n"), "\n")
	// Header + one row per phase + total row.
	if want := 1 + int(NumSpanPhases) + 1; len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), want, csvb.String())
	}
	if lines[0] != strings.Join(SpanCSVHeader, ",") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	lastFields := strings.Split(lines[len(lines)-1], ",")
	if lastFields[0] != "total" || lastFields[2] != "30" {
		t.Fatalf("total row = %q, want total with 30 cycles", lines[len(lines)-1])
	}

	if lastFields[1] != "1" || s.Mismatches() != 0 {
		t.Fatalf("total row = %q with %d mismatches, want 1 packet and none", lines[len(lines)-1], s.Mismatches())
	}

	// Determinism: a second render is byte-identical.
	var again strings.Builder
	if err := s.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != csvb.String() {
		t.Fatal("CSV render is not deterministic")
	}
}

// Probe plumbing: Options.Spans creates the tracker, nil probe hands
// out a nil (inert) one.
func TestProbeSpansOption(t *testing.T) {
	if p := New(Options{}); p.Spans() != nil {
		t.Fatal("Spans() != nil with Options.Spans unset")
	}
	if p := New(Options{Spans: true}); p.Spans() == nil {
		t.Fatal("Spans() == nil with Options.Spans set")
	}
	var nilP *Probe
	if nilP.Spans() != nil {
		t.Fatal("nil probe returned a non-nil span tracker")
	}
}
