package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one harness span around a call into a layer. Spans of one call
// share its root span as ancestor; Parent 0 marks a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer is the traced pass's recorder: harness spans kept in memory and
// the CPU profiles taken around each timed region. A nil *tracer is the
// untraced pass; every method is then a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	// profiles holds one gzipped pprof profile per timed region; the last
	// is still being written between startProfile and stopProfile.
	profiles []*bytes.Buffer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: t.us()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndUS = t.us()
}

// startProfile begins CPU profiling of the timed region that follows.
func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	buf := new(bytes.Buffer)
	t.profiles = append(t.profiles, buf)
	if err := pprof.StartCPUProfile(buf); err != nil {
		// Only a profile already running gets here, which is a bug in
		// the harness's own start/stop pairing.
		panic(fmt.Sprintf("bench: StartCPUProfile: %v", err))
	}
}

func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
}

// seconds sums the durations of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		}
	}
	return us / 1e6
}

// write stores the spans as JSON, creating the directory if needed.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
