package flightrec

import (
	"testing"

	"ownsim/internal/probe"
)

// TestRecorderTotalCountsEveryWindow: Total counts every window the
// sampler took, the oldest included.
func TestRecorderTotalCountsEveryWindow(t *testing.T) {
	p := probe.New(probe.Options{MetricsEvery: 256})
	p.Registry().Gauge("a", func() float64 { return 1 })
	const rows = 70
	for i := range rows {
		p.Sampler().Tick(uint64(i) * 256)
	}
	r := &Recorder{}
	r.Attach(p.Sampler())
	if r.Total() != rows {
		t.Fatalf("Total = %d, want %d", r.Total(), rows)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	// Unattached: a flight recorder installed without a sampling probe
	// holds a nil sampler.
	r := &Recorder{}
	if r.Total() != 0 {
		t.Fatal("unattached recorder must report nothing")
	}
}
