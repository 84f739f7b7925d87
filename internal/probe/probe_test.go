package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ownsim/internal/noc"
)

func TestNilFastPath(t *testing.T) {
	var p *Probe
	if p.Registry() != nil || p.Sampler() != nil || p.Tracer() != nil {
		t.Fatal("nil probe must hand out nil sub-objects")
	}
	p.Flush(100) // must not panic

	var r *Registry
	r.CounterFunc("x", func() uint64 { return 1 })
	r.Gauge("g", func() float64 { return 1 })
	if r.Len() != 0 || r.Names() != nil {
		t.Fatal("nil registry not empty")
	}

	var tr *Tracer
	if tr.Sampled(0) {
		t.Fatal("nil tracer must sample nothing")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not empty")
	}

	var s *Sampler
	if s.Rows() != 0 {
		t.Fatal("nil sampler not empty")
	}
}

func TestNewEnablesOnlyRequested(t *testing.T) {
	p := New(Options{})
	if p.Registry() == nil {
		t.Fatal("registry must always exist")
	}
	if p.Sampler() != nil || p.Tracer() != nil {
		t.Fatal("zero options must disable sampler and tracer")
	}
	p = New(Options{MetricsEvery: 8, TraceEvery: 4})
	if p.Sampler() == nil || p.Tracer() == nil {
		t.Fatal("options did not enable sampler/tracer")
	}
}

func TestRegistryOrderAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.CounterFunc("z.last", func() uint64 { return a }) // registered first despite sorting last
	r.Gauge("a.first", func() float64 { return 2.5 })
	r.CounterFunc("m.mid", func() uint64 { return b })
	a, b = 3, 1 // read at snapshot time, not at registration

	want := []string{"z.last", "a.first", "m.mid"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (registration order)", i, got[i], want[i])
		}
	}
	snap := r.snapshot(nil)
	if len(snap) != 3 || snap[0] != 3 || snap[1] != 2.5 || snap[2] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Gauge("dup", func() float64 { return 0 })
}

func TestSamplerWindowsAndFlush(t *testing.T) {
	p := New(Options{MetricsEvery: 10})
	var c uint64
	p.Registry().CounterFunc("n", func() uint64 { return c })
	s := p.Sampler()
	for cy := uint64(0); cy <= 25; cy++ {
		c++
		s.Tick(cy)
	}
	if s.Rows() != 3 { // cycles 0, 10, 20
		t.Fatalf("Rows() = %d, want 3", s.Rows())
	}
	p.Flush(25)
	if s.Rows() != 4 {
		t.Fatalf("Rows() after flush = %d, want 4", s.Rows())
	}
	p.Flush(25) // same cycle: no duplicate row
	if s.Rows() != 4 {
		t.Fatalf("Flush at same cycle added a row: %d", s.Rows())
	}

	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,n\n0,1\n10,11\n20,21\n25,26\n"
	if csvBuf.String() != want {
		t.Fatalf("CSV = %q, want %q", csvBuf.String(), want)
	}

	var nd bytes.Buffer
	if err := s.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(nd.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("NDJSON lines = %d", len(lines))
	}
	if lines[0] != `{"cycle":0,"n":1}` {
		t.Fatalf("NDJSON line 0 = %q", lines[0])
	}
	for _, ln := range lines {
		var m map[string]float64
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("NDJSON line %q: %v", ln, err)
		}
	}
}

func TestFormatValueNoExponent(t *testing.T) {
	cases := map[float64]string{0: "0", 3: "3", 0.5: "0.5", 1e6: "1000000"}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestTracerSamplingStride(t *testing.T) {
	p := New(Options{TraceEvery: 2})
	tr := p.Tracer()
	if !tr.Sampled(0) || tr.Sampled(1) || !tr.Sampled(4) {
		t.Fatal("stride-2 sampling wrong")
	}
	p = New(Options{TraceEvery: 1})
	if !p.Tracer().Sampled(17) {
		t.Fatal("stride-1 must sample everything")
	}
}

func TestTracerCapDrops(t *testing.T) {
	tr := newTracer(1, 2)
	cid := tr.Component("router.0")
	pkt := &noc.Packet{ID: 0, Src: 1, Dst: 2}
	for i := 0; i < 5; i++ {
		tr.Emit(uint64(i), cid, noc.EvRoute, pkt, 0)
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
}

// TestEventKindString pins the names the tracer gives the network event
// kinds it records, and that it names, so subscribes to, no other kind.
func TestEventKindString(t *testing.T) {
	want := map[noc.EventKind]string{
		noc.EvEnqueue: "enqueue", noc.EvInject: "inject", noc.EvRoute: "route",
		noc.EvVCAlloc: "vc_alloc", noc.EvSwitch: "switch", noc.EvGrant: "token_acquire",
		noc.EvFlitTx: "transmit", noc.EvRelease: "token_release", noc.EvEject: "eject",
	}
	for k := noc.EventKind(0); k < noc.NumEventKinds; k++ {
		if got := traceSteps[k].name; got != want[k] {
			t.Errorf("kind %d traced as %q, want %q", k, got, want[k])
		}
	}
}

// traceFixture records a two-hop packet lifecycle plus one untouched
// component ("sink.1") to exercise unused-thread elision.
func traceFixture() *Tracer {
	tr := newTracer(1, 100)
	src := tr.Component("src.0")
	r0 := tr.Component("router.0")
	tr.Component("sink.1") // never emits
	snk := tr.Component("sink.0")
	pkt := &noc.Packet{ID: 4, Src: 0, Dst: 1}
	tr.Emit(3, src, noc.EvEnqueue, pkt, 0)
	tr.Emit(5, src, noc.EvInject, pkt, 0)
	tr.Emit(6, r0, noc.EvRoute, pkt, 2)
	tr.Emit(7, r0, noc.EvVCAlloc, pkt, 1)
	tr.Emit(8, r0, noc.EvSwitch, pkt, 2)
	tr.Emit(12, snk, noc.EvEject, pkt, 0)
	return tr
}

func TestTracerChromeShape(t *testing.T) {
	tr := traceFixture()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, begins, ends, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
			if name, _ := e["args"].(map[string]any)["name"].(string); name == "sink.1" {
				t.Fatal("unused component must not get thread metadata")
			}
		case "b":
			begins++
		case "e":
			ends++
		case "i":
			instants++
		}
	}
	if meta != 3 {
		t.Fatalf("thread metadata entries = %d, want 3 (used components only)", meta)
	}
	if begins != 1 || ends != 1 {
		t.Fatalf("async span events b=%d e=%d, want 1/1", begins, ends)
	}
	if instants != 6 {
		t.Fatalf("instant events = %d, want 6 (one per lifecycle step)", instants)
	}

	var again bytes.Buffer
	if err := tr.WriteChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("Chrome trace serialization is not byte-stable")
	}
}

func TestManifestDeterministicJSON(t *testing.T) {
	mk := func() *Manifest {
		m := &Manifest{
			Tool:   "ownsim",
			Config: map[string]string{"zeta": "1", "alpha": "2", "mid": "3"},
			Cores:  16,
			Seed:   42,
			Cycles: 1000,
		}
		m.AddArtifact("metrics", "m.csv", []byte("cycle,n\n"))
		return m
	}
	var a, b bytes.Buffer
	if err := mk().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("manifest serialization is not byte-stable")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Fatal("manifest must end with a newline")
	}
	var back Manifest
	if err := json.Unmarshal(a.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 42 || len(back.Artifacts) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Artifacts[0].FNV64a != DigestHex([]byte("cycle,n\n")) {
		t.Fatal("artifact digest mismatch")
	}
	if strings.Contains(a.String(), "time") && strings.Contains(a.String(), "stamp") {
		t.Fatal("manifest must not embed wall-clock fields")
	}
}

func TestDigestHexKnownValues(t *testing.T) {
	// FNV-1a 64 offset basis for the empty string.
	if got := DigestHex(nil); got != "cbf29ce484222325" {
		t.Fatalf("DigestHex(nil) = %s", got)
	}
	if DigestHex([]byte("a")) == DigestHex([]byte("b")) {
		t.Fatal("digest does not separate inputs")
	}
}
