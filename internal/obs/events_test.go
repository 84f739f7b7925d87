package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"

	"ownsim/internal/fabric"
)

// TestEventsSlowConsumerDropsWithoutBlocking pins the Publish contract:
// the simulation goroutine never waits for a subscriber. A consumer
// whose channel is full loses samples — counted, not blocked on.
func TestEventsSlowConsumerDropsWithoutBlocking(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)

	// A subscriber that never drains: one-slot channel, nobody reading.
	ch := make(chan string, 1)
	s.mu.Lock()
	s.subs = append(s.subs, subscriber{id: 0, ch: ch})
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for cycle := uint64(1); cycle <= 5; cycle++ {
			s.Publish(cycle*16, []float64{1, 2, 3})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow /events subscriber")
	}

	s.mu.Lock()
	dropped := s.dropped
	s.mu.Unlock()
	// First sample fills the one-slot channel; the other four drop.
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}

	// The tally is operator-visible on /healthz.
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Dropped uint64 `json:"dropped"`
		Samples uint64 `json:"samples"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Dropped != 4 || health.Samples != 5 {
		t.Fatalf("healthz = %+v, want dropped 4 of samples 5", health)
	}
}

// failWriter models a client that disconnected mid-stream: every body
// write fails.
type failWriter struct{ header http.Header }

func (f *failWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *failWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (f *failWriter) WriteHeader(int)           {}

// TestEventsDisconnectedConsumerCountsWriteError drives handleEvents
// against a dead client: the failed write must be tallied (write_errors),
// the subscriber must be unregistered, and nothing may panic.
func TestEventsDisconnectedConsumerCountsWriteError(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	s.Publish(64, []float64{1, 2, 3}) // a snapshot to replay on connect

	s.handleEvents(&failWriter{}, httptest.NewRequest("GET", "/events", nil))

	s.mu.Lock()
	writeErrs, nsubs := s.writeErrs, len(s.subs)
	s.mu.Unlock()
	if writeErrs != 1 {
		t.Fatalf("write_errors = %d, want 1", writeErrs)
	}
	if nsubs != 0 {
		t.Fatalf("%d subscribers still registered after disconnect", nsubs)
	}

	// The server keeps serving after the dead client is gone.
	s.Publish(128, []float64{4, 5, 6})
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "ownsim_cycle 128") {
		t.Fatalf("/metrics stale after disconnect:\n%s", rec.Body.String())
	}
}

// TestEventsTwoConcurrentScrapers streams to two clients at once: both
// must see every published sample, in publish order, with no deadlock
// between the fan-out and the HTTP handlers.
func TestEventsTwoConcurrentScrapers(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients, samples = 2, 8
	readers := make([]*bufio.Reader, clients)
	for i := range readers {
		resp, err := http.Get("http://" + addr + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		readers[i] = bufio.NewReader(resp.Body)
	}

	for i := 0; i < samples; i++ {
		s.Publish(uint64(i+1)*10, []float64{float64(i), 0, 0})
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c, r := range readers {
		wg.Add(1)
		go func(c int, r *bufio.Reader) {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				line, err := r.ReadString('\n')
				if err != nil {
					errs[c] = err
					return
				}
				if want := fmt.Sprintf(`"cycle":%d`, (i+1)*10); !strings.Contains(line, want) {
					errs[c] = fmt.Errorf("client %d line %d = %q, want %s", c, i, line, want)
					return
				}
			}
		}(c, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	s.mu.Lock()
	dropped := s.dropped
	s.mu.Unlock()
	if dropped != 0 {
		t.Fatalf("dropped = %d with attentive scrapers, want 0", dropped)
	}
}

// TestEmitLatencyBreakdownRequiresSpans: asking for the breakdown
// artifacts on a network whose probe has no span tracker is a hard
// error, not an empty file.
func TestEmitLatencyBreakdownRequiresSpans(t *testing.T) {
	n := obsRing(3, power.NewMeter(nil))
	n.InstallProbe(probe.New(probe.Options{}))
	if _, err := EmitLatencyBreakdown(n, t.TempDir(), nil); err == nil {
		t.Fatal("EmitLatencyBreakdown succeeded without span decomposition")
	}
}

// TestEmitLatencyBreakdownArtifacts runs the ring with span attribution
// on and checks the emission path end to end: two files, recorded in
// the manifest under their logical names, with the identity holding.
func TestEmitLatencyBreakdownArtifacts(t *testing.T) {
	n := obsRing(4, power.NewMeter(nil))
	pr := probe.New(probe.Options{Spans: true})
	n.InstallProbe(pr)
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
		fabric.RunSpec{Warmup: 100, Measure: 800},
	)
	sp := pr.Spans()
	if sp.Packets() == 0 {
		t.Fatal("ring run attributed no packets")
	}
	if sp.Mismatches() != 0 || sp.TotalPhaseCycles() != sp.LatencyCycles() {
		t.Fatalf("identity broken: %d mismatches, %d/%d cy",
			sp.Mismatches(), sp.TotalPhaseCycles(), sp.LatencyCycles())
	}

	man := &probe.Manifest{Tool: "obs-test"}
	files, err := EmitLatencyBreakdown(n, t.TempDir(), man)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %v, want CSV+SVG", files)
	}
	wantNames := map[string]bool{
		"latency_breakdown":     false,
		"latency_breakdown_svg": false,
	}
	for _, a := range man.Artifacts {
		if _, ok := wantNames[a.Name]; ok {
			wantNames[a.Name] = true
		}
	}
	for name, seen := range wantNames {
		if !seen {
			t.Errorf("manifest missing artifact %q", name)
		}
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
