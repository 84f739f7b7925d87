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
// iterate phases in enum order — the live map is lookup-only) and inert
// (a nil *SpanTracker is valid everywhere and does nothing).

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
// records nothing; fabric.Network.InstallProbe points a non-nil one at
// the source, sink and router taps (Watch) and feeds it the channel
// transmissions (ChannelTx) when Options.Spans is set.
type SpanTracker struct {
	live map[uint64]*spanState // keyed by packet ID; lookup only, never iterated
	free []*spanState

	totals     [NumSpanPhases]uint64
	packets    uint64
	latencyCy  uint64
	mismatches uint64
}

func newSpanTracker() *SpanTracker {
	return &SpanTracker{live: make(map[uint64]*spanState)}
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
	s.live[p.ID] = st
}

// Inject charges the source-queue wait when the head flit leaves the
// queue for the network interface.
func (s *SpanTracker) Inject(p *noc.Packet, cycle uint64) {
	if s == nil {
		return
	}
	st := s.live[p.ID]
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
	st := s.live[f.Pkt.ID]
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
// serializeCy+propCy later). A SWMR wireless hop labels the following
// residual interval as the inter-group forward.
//
// It returns the token-wait cycles just charged and whether anything
// was charged at all (false for a nil tracker, non-head flits and
// unmeasured packets), so per-tile fairness accounting can mirror the
// span attribution exactly — the flight recorder's tile sums reconcile
// with PhaseCycles(SpanTokenWait) by construction.
func (s *SpanTracker) ChannelTx(cycle uint64, f *noc.Flit, serializeCy, propCy int, transit SpanPhase, swmrFwd bool) (tokenWaitCy uint64, ok bool) {
	if s == nil || !f.IsHead() {
		return 0, false
	}
	st := s.live[f.Pkt.ID]
	if st == nil {
		return 0, false
	}
	wait := cycle - st.mark
	st.acc[SpanTokenWait] += wait
	st.acc[SpanSerialize] += uint64(serializeCy)
	st.acc[transit] += uint64(propCy)
	st.mark = cycle + uint64(serializeCy) + uint64(propCy)
	if swmrFwd {
		st.residual = SpanSWMRFwd
	} else {
		st.residual = SpanElec
	}
	return wait, true
}

// Eject closes the packet's attribution at tail ejection, verifies the
// telescoping identity against the packet's end-to-end latency and
// folds the per-packet counts into the run totals.
func (s *SpanTracker) Eject(p *noc.Packet, cycle uint64) {
	if s == nil {
		return
	}
	st := s.live[p.ID]
	if st == nil {
		return
	}
	delete(s.live, p.ID)
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
	return len(s.live)
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
// so the dump bytes are independent of map iteration order. It is a
// diagnostic path (watchdog dumps, /debug/dump), not the hot path.
func (s *SpanTracker) LiveSpans() []LiveSpan {
	if s == nil || len(s.live) == 0 {
		return nil
	}
	out := make([]LiveSpan, 0, len(s.live))
	for id, st := range s.live {
		out = append(out, LiveSpan{
			ID: id, Src: st.src, Dst: st.dst,
			CreatedAt: st.created, MarkCy: st.mark, Phase: st.residual,
		})
	}
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
