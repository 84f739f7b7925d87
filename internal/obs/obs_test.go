package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ownsim/internal/probe"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testProbe builds a probe with a small fixed registry: one counter and
// two gauges, including a name that needs sanitizing.
func testProbe() (*probe.Probe, *uint64, *[]float64) {
	p := probe.New(probe.Options{MetricsEvery: 16})
	reg := p.Registry()
	ctr := new(uint64)
	reg.CounterFunc("net.sa_grants", func() uint64 { return *ctr })
	vals := &[]float64{3, 0.125}
	reg.Gauge("net.buffered_flits", func() float64 { return (*vals)[0] })
	reg.Gauge("ch.wireless.wl c2c/0.busy_cy", func() float64 { return (*vals)[1] })
	return p, ctr, vals
}

// TestGoldenPrometheusExposition pins the /metrics bytes for a small
// fixed snapshot. Run `go test ./internal/obs -run Golden -update` to
// rebless after an intentional format change.
func TestGoldenPrometheusExposition(t *testing.T) {
	p, ctr, _ := testProbe()
	*ctr = 42
	s := New()
	s.Attach(p)
	s.Publish(512, []float64{42, 3, 0.125})
	s.MarkDone()

	got := []byte(s.PrometheusText())
	golden := filepath.Join("testdata", "metrics.golden.prom")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition deviates from %s:\n%s", golden, got)
	}
}

// TestPromNamesSanitizeAndDisambiguate checks the Prometheus name
// mapping: the ownsim_ prefix, character sanitization, and collision
// suffixes in registration order.
func TestPromNamesSanitizeAndDisambiguate(t *testing.T) {
	names := promNames([]probe.MetricInfo{
		{Name: "net.sa_grants"},
		{Name: "ch.wl c2c/0.busy"},
		{Name: "net.sa/grants"}, // collides with net.sa_grants once sanitized
	})
	want := []string{"ownsim_net_sa_grants", "ownsim_ch_wl_c2c_0_busy", "ownsim_net_sa_grants_2"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

// TestServerEndpoints drives the live plane over real HTTP: /metrics
// serves the exposition, /healthz the progress snapshot, /events the
// NDJSON stream starting with the latest sample.
func TestServerEndpoints(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Publish(256, []float64{7, 1, 2})

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{"ownsim_running 1", "ownsim_cycle 256", "ownsim_samples_total 1", "ownsim_net_sa_grants 7"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Cycle   uint64 `json:"cycle"`
		Samples uint64 `json:"samples"`
		Metrics int    `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "running" || health.Cycle != 256 || health.Samples != 1 || health.Metrics != 3 {
		t.Fatalf("healthz = %+v", health)
	}

	// /events replays the latest snapshot immediately.
	resp, err = http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("events line %q: %v", line, err)
	}
	if ev["cycle"] != float64(256) || ev["net.sa_grants"] != float64(7) {
		t.Fatalf("events line = %v", ev)
	}

	s.MarkDone()
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ownsim_running 0") {
		t.Fatal("MarkDone not reflected in /metrics")
	}
}

// TestPublishCopiesValues guards the snapshot contract: the caller may
// reuse its slice after Publish returns.
func TestPublishCopiesValues(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	vals := []float64{1, 2, 3}
	s.Publish(10, vals)
	vals[0] = 99
	if !strings.Contains(s.PrometheusText(), "ownsim_net_sa_grants 1\n") {
		t.Fatalf("snapshot aliased the caller's slice:\n%s", s.PrometheusText())
	}
}

// TestNDJSONLineMatchesSamplerFormat: Attach routes each sampler tick to
// the /events line, rendered in the sampler's NDJSON format (cycle first,
// then registration order, deterministic float rendering) and pinned
// here byte for byte.
func TestNDJSONLineMatchesSamplerFormat(t *testing.T) {
	p, ctr, _ := testProbe()
	*ctr = 7
	s := New()
	s.Attach(p)
	p.Sampler().Tick(32) // one sample, published through OnSample
	s.mu.Lock()
	got := s.line
	s.mu.Unlock()
	if want := `{"cycle":32,"net.sa_grants":7,"net.buffered_flits":3,"ch.wireless.wl c2c/0.busy_cy":0.125}`; got != want {
		t.Fatalf("/events line = %s, want %s", got, want)
	}
}

// TestEventsStreamReceivesPublishes subscribes first, then publishes, and
// expects both samples in order.
func TestEventsStreamReceivesPublishes(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for i, cycle := range []uint64{100, 200} {
		s.Publish(cycle, []float64{float64(i), 0, 0})
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(line, fmt.Sprintf(`"cycle":%d`, cycle)) {
			t.Fatalf("stream line %d = %q, want cycle %d", i, line, cycle)
		}
	}
}
