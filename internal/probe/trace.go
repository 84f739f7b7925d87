package probe

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"ownsim/internal/noc"
)

// Event is one recorded lifecycle step.
type Event struct {
	// Cycle is the simulated time of the event.
	Cycle uint64
	// Comp indexes the component (router, source, sink, channel) that
	// recorded the event, in the tracer's registration order.
	Comp int32
	// Kind is the network event, one of the kinds traceSteps names.
	Kind noc.EventKind
	// Pkt, Src and Dst identify the packet.
	Pkt      uint64
	Src, Dst int32
	// Arg is event-specific detail (output port, output VC, token cost,
	// receiver index).
	Arg int32
}

// Tracer records per-packet lifecycle events. fabric.Network.InstallProbe
// points it at every component's tap (Watch); events are appended in
// engine order, so the recorded stream is deterministic. Only packets selected by the
// every-Nth sampling knob are traced, and the event buffer is capped to
// bound memory.
type Tracer struct {
	every   uint64
	max     int
	comps   []string
	events  []Event
	dropped uint64
}

func newTracer(every uint64, max int) *Tracer {
	return &Tracer{every: every, max: max}
}

// Sampled reports whether the packet with the given ID is traced.
func (t *Tracer) Sampled(id uint64) bool {
	return t != nil && id%t.every == 0
}

// Component registers a component name and returns its index.
func (t *Tracer) Component(name string) int {
	t.comps = append(t.comps, name)
	return len(t.comps) - 1
}

// traceSteps names each network event the tracer records, as its
// trace.json instant events show it, and picks the event operand kept
// as Arg (0 none, 1 A, 2 B, 3 C); kinds without a name are not
// subscribed to. Per-flit kinds record the head flit only.
var traceSteps = [noc.NumEventKinds]struct {
	name string
	arg  uint8
}{
	noc.EvEnqueue: {"enqueue", 0},
	noc.EvInject:  {"inject", 0},
	noc.EvRoute:   {"route", 2},         // output port
	noc.EvVCAlloc: {"vc_alloc", 2},      // output VC
	noc.EvSwitch:  {"switch", 2},        // output port
	noc.EvGrant:   {"token_acquire", 3}, // token cost
	noc.EvFlitTx:  {"transmit", 1},      // receiver
	noc.EvRelease: {"token_release", 0},
	noc.EvEject:   {"eject", 0},
}

// Watch registers a component under name ("router.5", "src.0",
// "photonic.c2/home7.0") and records the sampled packets' steps its tap
// emits. Call once per component at wiring time, in deterministic order:
// the order fixes the component indices and so the exported trace bytes.
func (t *Tracer) Watch(tap *noc.Tap, name string) {
	if t == nil {
		return
	}
	comp := t.Component(name)
	var mask uint32
	for k, st := range traceSteps {
		if st.name != "" {
			mask |= noc.Mask(noc.EventKind(k))
		}
	}
	tap.Subscribe(mask, func(e noc.Event) {
		if (e.Flit != nil && !e.Flit.IsHead()) || !t.Sampled(e.Pkt.ID) {
			return
		}
		// An array value indexed in place never escapes, so it does not allocate.
		t.Emit(e.Cycle, comp, e.Kind, e.Pkt, [...]int{0, e.A, e.B, e.C}[traceSteps[e.Kind].arg])
	})
}

// Emit records one event for a sampled packet. Callers are expected to
// have checked Sampled already.
func (t *Tracer) Emit(cycle uint64, comp int, kind noc.EventKind, p *noc.Packet, arg int) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{
		Cycle: cycle,
		Comp:  int32(comp),
		Kind:  kind,
		Pkt:   p.ID,
		Src:   int32(p.Src),
		Dst:   int32(p.Dst),
		Arg:   int32(arg),
	})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns the number of events discarded after the buffer cap
// was reached; nonzero means the trace is truncated (raise the sampling
// stride).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded event stream in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// WriteChrome writes the trace in Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): one "thread" per component, an instant
// event per lifecycle step, and an async span per packet from enqueue to
// ejection. Timestamps are simulated cycles interpreted as microseconds.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[\n")
	// Thread metadata for every component that recorded at least one
	// event; unused components are omitted to keep small traces small.
	used := make([]bool, len(t.comps))
	for _, e := range t.events {
		used[e.Comp] = true
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, format, args...)
	}
	for i, name := range t.comps {
		if used[i] {
			emit("{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", i, strconv.Quote(name))
		}
	}
	for _, e := range t.events {
		switch e.Kind {
		case noc.EvEnqueue:
			emit("{\"name\":\"pkt\",\"cat\":\"pkt\",\"ph\":\"b\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"src\":%d,\"dst\":%d}}",
				e.Pkt, e.Comp, e.Cycle, e.Src, e.Dst)
		case noc.EvEject:
			emit("{\"name\":\"pkt\",\"cat\":\"pkt\",\"ph\":\"e\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%d}",
				e.Pkt, e.Comp, e.Cycle)
		}
		emit("{\"name\":%q,\"cat\":\"hop\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"pkt\":%d,\"src\":%d,\"dst\":%d,\"arg\":%d}}",
			traceSteps[e.Kind].name, e.Comp, e.Cycle, e.Pkt, e.Src, e.Dst, e.Arg)
	}
	b.WriteString("\n]}\n")
	_, err := w.Write(b.Bytes())
	return err
}
