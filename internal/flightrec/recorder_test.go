package flightrec

import (
	"testing"

	"ownsim/internal/probe"
)

// sampledRecorder returns a recorder attached to a two-metric sampler
// that has taken rows windows, one every 256 cycles; metric "a" reads the
// window index and "b" twice that.
func sampledRecorder(rows int) *Recorder {
	p := probe.New(probe.Options{MetricsEvery: 256})
	var i float64
	p.Registry().Gauge("a", func() float64 { return i })
	p.Registry().Gauge("b", func() float64 { return 2 * i })
	for ; int(i) < rows; i++ {
		p.Sampler().Tick(uint64(i) * 256)
	}
	r := &Recorder{}
	r.Attach(p.Sampler())
	return r
}

// TestRecorderRingEvictsOldest: rows older than the last RingFrames fall
// out of the tail a dump shows, and the tail stays chronological.
func TestRecorderRingEvictsOldest(t *testing.T) {
	r := sampledRecorder(RingFrames + 6)
	if r.Total() != RingFrames+6 {
		t.Fatalf("Total = %d, want %d", r.Total(), RingFrames+6)
	}
	tail := r.Tail(0)
	if len(tail) != RingFrames {
		t.Fatalf("Tail kept %d frames, want %d", len(tail), RingFrames)
	}
	// Chronological order, oldest shown frame first.
	for i, f := range tail {
		want := uint64((6 + i) * 256)
		if f.Cycle != want {
			t.Errorf("tail[%d].Cycle = %d, want %d", i, f.Cycle, want)
		}
		if f.Values[0] != float64(6+i) || f.Values[1] != float64(2*(6+i)) {
			t.Errorf("tail[%d].Values = %v, want [%d %d]", i, f.Values, 6+i, 2*(6+i))
		}
	}
	if got := r.Tail(2); len(got) != 2 || got[0].Cycle != uint64(RingFrames+4)*256 {
		t.Errorf("Tail(2) = %+v, want last two frames", got)
	}
	if got := r.Tail(RingFrames + 99); len(got) != RingFrames {
		t.Errorf("Tail beyond the bound kept %d frames, want %d", len(got), RingFrames)
	}
	if got := sampledRecorder(3).Tail(0); len(got) != 3 || got[0].Cycle != 0 {
		t.Errorf("short run Tail(0) = %+v, want all 3 rows", got)
	}
}

func TestRecorderNames(t *testing.T) {
	if got := sampledRecorder(1).Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	// Unattached: a flight recorder installed without a sampling probe
	// holds a nil sampler.
	r := &Recorder{}
	if r.Total() != 0 || len(r.Tail(0)) != 0 || r.Names() != nil {
		t.Fatal("unattached recorder must report nothing")
	}
}
