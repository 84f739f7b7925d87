package probe

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ownsim/internal/noc"
)

// Latency attribution spans: every measured packet's end-to-end latency
// is decomposed into disjoint per-phase cycle counts whose sum equals
// the latency exactly, cycle for cycle.
//
// The decomposition is telescoping: the tracker keeps one running mark
// per live packet (the cycle up to which its lifetime has already been
// attributed) and advances it at every lifecycle hook, charging the
// interval since the previous mark to exactly one phase. The walk
// follows the head flit from source enqueue to the last router, then
// the final interval — terminal wire plus body/tail drain — is the sink
// ejection phase. Medium flight is pre-attributed at transmit time
// (serialization and propagation delays are fixed channel parameters),
// which is safe because the head's next observable event, a switch at
// the downstream router or the ejection of the tail, always happens at
// or after the delivery cycle. Because every interval is charged
// somewhere and the final hook closes the last one at the ejection
// cycle, the per-packet identity sum(phases) == EjectedAt - CreatedAt
// holds by construction; the tracker still verifies it per packet and
// counts violations in Mismatches.
//
// Like the rest of the probe layer the tracker is deterministic (hooks
// fire in engine order, aggregation is integer arithmetic, exports
// iterate phases in enum order, live spans are listed by ID) and inert
// (a nil *SpanTracker is valid everywhere and does nothing). Open
// attributions are found through a noc.IDTable, looked up once per head
// event, so no Go map sits on the event path.
//
// The token wait ChannelTx charges is also booked, once, in the token
// ledger: one TokenCell per (channel, source tile), plus one row total
// per channel. The fairness artifacts and the token.* gauges read it, so
// they reconcile with PhaseCycles(SpanTokenWait) cycle for cycle.

// SpanPhase is one latency attribution phase.
type SpanPhase uint8

const (
	// SpanSrcQueue is time spent in the source queue, from admission to
	// head injection.
	SpanSrcQueue SpanPhase = iota
	// SpanElec is electrical traversal: router pipelines and the wires
	// between them (the residual phase between attributed events).
	SpanElec
	// SpanTokenWait is time waiting for a shared channel: transmit-queue
	// wait, token arbitration hops and pre-head credit stalls, from the
	// head's switch into the channel writer to its serialization start.
	SpanTokenWait
	// SpanSerialize is the head flit's serialization time on a shared
	// medium.
	SpanSerialize
	// SpanPhotonic is flight time on a photonic waveguide bus.
	SpanPhotonic
	// SpanWirelessC2C, SpanWirelessE2E and SpanWirelessSR are flight
	// times on wireless channels of the paper's link-distance classes.
	SpanWirelessC2C
	SpanWirelessE2E
	SpanWirelessSR
	// SpanWireless is flight time on a wireless channel with no class
	// label.
	SpanWireless
	// SpanSWMRFwd is the inter-group forward at the addressed cluster
	// after a SWMR wireless hop: the interval from the wireless delivery
	// to the forwarding router's head switch.
	SpanSWMRFwd
	// SpanSinkEject is the tail end of the journey: from the last
	// router's head switch through the terminal wire until the tail flit
	// reaches the sink.
	SpanSinkEject
	// NumSpanPhases bounds the enum.
	NumSpanPhases
)

var spanPhaseNames = [NumSpanPhases]string{
	"src_queue", "elec", "token_wait", "serialize", "photonic",
	"wireless_c2c", "wireless_e2e", "wireless_sr", "wireless",
	"swmr_fwd", "sink_eject",
}

// String implements fmt.Stringer.
func (p SpanPhase) String() string {
	if int(p) < len(spanPhaseNames) {
		return spanPhaseNames[p]
	}
	return fmt.Sprintf("SpanPhase(%d)", uint8(p))
}

// WirelessSpanPhase maps a wireless link-distance class label ("C2C",
// "E2E", "SR") to its transit phase; unknown labels attribute to the
// unclassified wireless phase.
func WirelessSpanPhase(class string) SpanPhase {
	switch class {
	case "C2C":
		return SpanWirelessC2C
	case "E2E":
		return SpanWirelessE2E
	case "SR":
		return SpanWirelessSR
	}
	return SpanWireless
}

// TokenCell is one cell of the token ledger: how many token waits were
// booked, their summed cycles and the longest single one.
type TokenCell struct {
	Acqs, WaitCy, MaxCy uint64
}

// Add folds o into c: counts and cycles sum, the longest wait is the
// longer of the two.
func (c *TokenCell) Add(o TokenCell) {
	c.Acqs += o.Acqs
	c.WaitCy += o.WaitCy
	c.MaxCy = max(c.MaxCy, o.MaxCy)
}

func (c *TokenCell) book(waitCy uint64) {
	c.Acqs++
	c.WaitCy += waitCy
	c.MaxCy = max(c.MaxCy, waitCy)
}

// ChannelHop is what ChannelTx needs of one shared channel: its row in
// the token ledger and the fixed delays it pre-attributes. The installer
// resolves it once per channel.
type ChannelHop struct {
	// Ledger is the channel's row in the token ledger.
	Ledger int
	// SerializeCy and PropCy are the channel's serialization and
	// propagation delays; Transit is the phase the propagation is
	// charged to.
	SerializeCy, PropCy int
	Transit             SpanPhase
	// SWMRFwd labels the residual after the hop as the inter-group
	// forward (a SWMR wireless channel).
	SWMRFwd bool
}

// spanState is the open attribution of one in-flight measured packet.
type spanState struct {
	// mark is the cycle up to which the lifetime is attributed.
	mark uint64
	// residual is the phase the next residual interval (ending at the
	// next head switch or ejection) is charged to.
	residual SpanPhase
	acc      [NumSpanPhases]uint64
	// src, dst and created record the packet's endpoints and admission
	// cycle so live-state dumps can describe in-flight packets without
	// holding packet pointers (which the pool recycles).
	src, dst int
	created  uint64
}

// SpanTracker accumulates per-phase latency attribution over the
// measured packets of one run. A nil tracker is valid everywhere and
// records nothing; fabric.Network.InstallProbe sizes its token ledger
// (SizeTokenLedger), points it at the source, sink and router taps
// (Watch) and feeds it the channel transmissions (ChannelTx) when
// Options.Spans is set.
type SpanTracker struct {
	live noc.IDTable[spanState] // keyed by packet ID
	free []*spanState

	// The token ledger: cells[ch*tiles+tile] and one row total per
	// channel. A tile is coresPerTile consecutive source cores.
	cells, rows         []TokenCell
	tiles, coresPerTile int

	totals     [NumSpanPhases]uint64
	packets    uint64
	latencyCy  uint64
	mismatches uint64
}

func newSpanTracker() *SpanTracker { return &SpanTracker{coresPerTile: 1} }

// SizeTokenLedger sizes the token ledger for channels shared channels and
// tiles source tiles of coresPerTile cores each. The ledger never grows
// afterwards; a wait outside it is charged to token_wait but not booked.
func (s *SpanTracker) SizeTokenLedger(channels, tiles, coresPerTile int) {
	if s == nil {
		return
	}
	s.cells = make([]TokenCell, channels*tiles)
	s.rows = make([]TokenCell, channels)
	s.tiles, s.coresPerTile = tiles, max(coresPerTile, 1)
}

// Watch subscribes the tracker to the attribution points a source, sink
// or router tap emits: enqueue, inject, head switch and eject. Shared
// channels go through ChannelTx, which needs the channel's parameters.
func (s *SpanTracker) Watch(tap *noc.Tap) {
	if s == nil {
		return
	}
	tap.Subscribe(noc.Mask(noc.EvEnqueue, noc.EvInject, noc.EvSwitch, noc.EvEject), func(e noc.Event) {
		switch e.Kind {
		case noc.EvEnqueue:
			s.Enqueue(e.Pkt, e.Cycle)
		case noc.EvInject:
			s.Inject(e.Pkt, e.Cycle)
		case noc.EvSwitch:
			s.Switch(e.Cycle, e.Flit)
		case noc.EvEject:
			s.Eject(e.Pkt, e.Cycle)
		}
	})
}

func (s *SpanTracker) getState() *spanState {
	if n := len(s.free); n > 0 {
		st := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*st = spanState{}
		return st
	}
	return &spanState{}
}

// Enqueue opens a packet's attribution at source-queue admission.
// Packets outside the measurement window are ignored, so the aggregate
// covers exactly the population the statistics collector reports.
func (s *SpanTracker) Enqueue(p *noc.Packet, cycle uint64) {
	if s == nil || !p.Measure {
		return
	}
	st := s.getState()
	st.mark = cycle
	st.residual = SpanElec
	st.src, st.dst, st.created = p.Src, p.Dst, cycle
	s.live.Put(p.ID, st)
}

// Inject charges the source-queue wait when the head flit leaves the
// queue for the network interface.
func (s *SpanTracker) Inject(p *noc.Packet, cycle uint64) {
	if s == nil {
		return
	}
	st := s.live.Get(p.ID)
	if st == nil {
		return
	}
	st.acc[SpanSrcQueue] += cycle - st.mark
	st.mark = cycle
}

// Switch closes the current residual interval at a router's head-flit
// switch traversal (body and tail flits are not attribution points).
func (s *SpanTracker) Switch(cycle uint64, f *noc.Flit) {
	if s == nil || !f.IsHead() {
		return
	}
	st := s.live.Get(f.Pkt.ID)
	if st == nil {
		return
	}
	st.acc[st.residual] += cycle - st.mark
	st.mark = cycle
	st.residual = SpanElec
}

// ChannelTx attributes a shared-channel hop when the head flit starts
// serializing: the interval since the head switched into the channel
// writer is token wait, then the channel's fixed serialization and
// propagation delays are pre-attributed (the head is delivered exactly
// SerializeCy+PropCy later). A SWMR wireless hop labels the following
// residual interval as the inter-group forward. The token wait is booked
// in the ledger under the channel and the packet's source tile; body
// flits and unmeasured packets charge and book nothing.
func (s *SpanTracker) ChannelTx(cycle uint64, f *noc.Flit, h ChannelHop) {
	if s == nil || !f.IsHead() {
		return
	}
	st := s.live.Get(f.Pkt.ID)
	if st == nil {
		return
	}
	wait := cycle - st.mark
	st.acc[SpanTokenWait] += wait
	st.acc[SpanSerialize] += uint64(h.SerializeCy)
	st.acc[h.Transit] += uint64(h.PropCy)
	st.mark = cycle + uint64(h.SerializeCy) + uint64(h.PropCy)
	if h.SWMRFwd {
		st.residual = SpanSWMRFwd
	} else {
		st.residual = SpanElec
	}
	if tile := st.src / s.coresPerTile; h.Ledger < len(s.rows) && tile < s.tiles {
		s.cells[h.Ledger*s.tiles+tile].book(wait)
		s.rows[h.Ledger].book(wait)
	}
}

// Eject closes the packet's attribution at tail ejection, verifies the
// telescoping identity against the packet's end-to-end latency and
// folds the per-packet counts into the run totals.
func (s *SpanTracker) Eject(p *noc.Packet, cycle uint64) {
	if s == nil {
		return
	}
	st := s.live.Delete(p.ID)
	if st == nil {
		return
	}
	st.acc[SpanSinkEject] += cycle - st.mark
	var sum uint64
	for ph, cy := range st.acc {
		sum += cy
		s.totals[ph] += cy
	}
	lat := cycle - p.CreatedAt
	if sum != lat {
		s.mismatches++
	}
	s.packets++
	s.latencyCy += lat
	s.free = append(s.free, st)
}

// Packets returns the number of measured packets attributed.
func (s *SpanTracker) Packets() uint64 {
	if s == nil {
		return 0
	}
	return s.packets
}

// LatencyCycles returns the summed end-to-end latency of every
// attributed packet; it equals the sum of PhaseCycles over all phases
// whenever Mismatches is zero.
func (s *SpanTracker) LatencyCycles() uint64 {
	if s == nil {
		return 0
	}
	return s.latencyCy
}

// PhaseCycles returns the total cycles attributed to one phase.
func (s *SpanTracker) PhaseCycles(p SpanPhase) uint64 {
	if s == nil || p >= NumSpanPhases {
		return 0
	}
	return s.totals[p]
}

// TotalPhaseCycles returns the sum of PhaseCycles over all phases.
func (s *SpanTracker) TotalPhaseCycles() uint64 {
	if s == nil {
		return 0
	}
	var sum uint64
	for _, cy := range s.totals {
		sum += cy
	}
	return sum
}

// Mismatches returns the number of packets whose phase sum failed the
// latency identity; any nonzero value is an attribution bug.
func (s *SpanTracker) Mismatches() uint64 {
	if s == nil {
		return 0
	}
	return s.mismatches
}

// InFlight returns the number of packets with open attributions (for
// drain checks and leak tests).
func (s *SpanTracker) InFlight() int {
	if s == nil {
		return 0
	}
	return s.live.Len()
}

// TokenTiles returns the number of source tiles the token ledger was
// sized for.
func (s *SpanTracker) TokenTiles() int {
	if s == nil {
		return 0
	}
	return s.tiles
}

// Token returns the ledger cell of one (channel, source tile).
func (s *SpanTracker) Token(ch, tile int) TokenCell {
	if s == nil {
		return TokenCell{}
	}
	return s.cells[ch*s.tiles+tile]
}

// TokenRow returns one channel's ledger total over every source tile.
func (s *SpanTracker) TokenRow(ch int) TokenCell {
	if s == nil {
		return TokenCell{}
	}
	return s.rows[ch]
}

// LiveSpan describes one in-flight measured packet's open attribution
// for state dumps: where it is going, when it was admitted, and which
// phase its clock is currently running in.
type LiveSpan struct {
	// ID is the packet ID.
	ID uint64
	// Src and Dst are the packet's endpoint cores.
	Src, Dst int
	// CreatedAt is the source-queue admission cycle.
	CreatedAt uint64
	// MarkCy is the cycle up to which the lifetime is attributed.
	MarkCy uint64
	// Phase is the phase the currently open interval will be charged to.
	Phase SpanPhase
}

// LiveSpans snapshots every in-flight attribution, sorted by packet ID
// so the dump bytes are independent of the table's slot order. It is a
// diagnostic path (state dumps), not the hot path.
func (s *SpanTracker) LiveSpans() []LiveSpan {
	if s == nil || s.live.Len() == 0 {
		return nil
	}
	out := make([]LiveSpan, 0, s.live.Len())
	s.live.Range(func(id uint64, st *spanState) {
		out = append(out, LiveSpan{
			ID: id, Src: st.src, Dst: st.dst,
			CreatedAt: st.created, MarkCy: st.mark, Phase: st.residual,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SpanCSVHeader is the latency-breakdown CSV header. The record test
// (obscheck.TestRecordInvariants) recognizes the artifact by it and enforces
// the sum identity: the
// phase rows' cycles column must sum exactly (integer equality, no
// tolerance) to the final total row, which carries the summed
// end-to-end latency.
var SpanCSVHeader = []string{"phase", "packets", "cycles", "avg_cy_per_pkt", "share"}

// spanRow renders one breakdown row with the package's deterministic
// float formatting.
func spanRow(b *bytes.Buffer, name string, packets, cycles, latency uint64) {
	avg, share := 0.0, 0.0
	if packets > 0 {
		avg = float64(cycles) / float64(packets)
	}
	if latency > 0 {
		share = float64(cycles) / float64(latency)
	}
	fmt.Fprintf(b, "%s,%d,%d,%s,%s\n", name, packets, cycles,
		strconv.FormatFloat(avg, 'f', -1, 64), strconv.FormatFloat(share, 'f', -1, 64))
}

// WriteCSV writes the aggregated breakdown: one row per phase in enum
// order (zero phases included, so the row set is fixed) and a final
// total row whose cycles equal the summed end-to-end latency. Like every
// exporter of the package it formats in memory and reaches w in one
// Write, whose error is the one returned.
func (s *SpanTracker) WriteCSV(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(strings.Join(SpanCSVHeader, ",") + "\n")
	packets, latency := s.Packets(), s.LatencyCycles()
	for ph := SpanPhase(0); ph < NumSpanPhases; ph++ {
		spanRow(&b, ph.String(), packets, s.PhaseCycles(ph), latency)
	}
	spanRow(&b, "total", packets, latency, latency)
	_, err := w.Write(b.Bytes())
	return err
}
