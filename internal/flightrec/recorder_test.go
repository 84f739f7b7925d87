package flightrec

import (
	"bytes"
	"strings"
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

func TestStallTrackerAggregates(t *testing.T) {
	st := NewStallTracker(4)
	ph := st.AddChannel("bus0", "photonic")
	wl := st.AddChannel("wl0", "wireless")
	if st.Tiles() != 4 || ph != 0 || wl != 1 {
		t.Fatalf("Tiles=%d, channel indices %d, %d", st.Tiles(), ph, wl)
	}

	st.Observe(ph, 0, 10)
	st.Observe(ph, 0, 30)
	st.Observe(ph, 2, 0)
	st.Observe(wl, 1, 5)

	count, sum, max := st.KindTotals(KindPhotonic)
	if count != 3 || sum != 40 || max != 30 {
		t.Errorf("photonic totals = (%d, %d, %d), want (3, 40, 30)", count, sum, max)
	}
	count, sum, max = st.KindTotals(KindWireless)
	if count != 1 || sum != 5 || max != 5 {
		t.Errorf("wireless totals = (%d, %d, %d), want (1, 5, 5)", count, sum, max)
	}
	if st.TotalWaitCy() != 45 {
		t.Errorf("TotalWaitCy = %d, want 45", st.TotalWaitCy())
	}

	vals := st.TileWaitValues()
	if vals[0] != 40 || vals[1] != 5 || vals[2] != 0 {
		t.Errorf("TileWaitValues = %v", vals)
	}
	labels := st.TileLabels()
	if len(labels) != 4 || labels[3] != "t3" {
		t.Errorf("TileLabels = %v", labels)
	}

	// Out-of-range observations are ignored, not panics.
	st.Observe(-1, 0, 1)
	st.Observe(99, 0, 1)
	st.Observe(ph, -1, 1)
	st.Observe(ph, 99, 1)
	if st.TotalWaitCy() != 45 {
		t.Error("out-of-range Observe leaked into the aggregates")
	}
}

func TestStallTrackerObserveAllocFree(t *testing.T) {
	st := NewStallTracker(8)
	ch := st.AddChannel("bus", "photonic")
	if allocs := testing.AllocsPerRun(100, func() {
		st.Observe(ch, 3, 17)
	}); allocs != 0 {
		t.Errorf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestChannelJainConventions(t *testing.T) {
	st := NewStallTracker(3)
	ch := st.AddChannel("bus", "photonic")

	// No acquisitions: perfectly fair by convention.
	if j, active, _, _ := st.ChannelJain(ch); j != 1 || active != 0 {
		t.Errorf("idle channel jain = (%v, %d), want (1, 0)", j, active)
	}
	// Equal mean waits: index exactly 1.
	st.Observe(ch, 0, 10)
	st.Observe(ch, 1, 10)
	if j, active, acqs, wait := st.ChannelJain(ch); j != 1 || active != 2 || acqs != 2 || wait != 20 {
		t.Errorf("balanced jain = (%v, %d, %d, %d), want (1, 2, 2, 20)", j, active, acqs, wait)
	}
	// One tile waits far longer: index drops but stays in (0, 1].
	st.Observe(ch, 2, 1000)
	j, _, _, _ := st.ChannelJain(ch)
	if !(j > 0 && j < 1) {
		t.Errorf("skewed jain = %v, want in (0, 1)", j)
	}
	if j2, _, _, _ := st.ChannelJain(99); j2 != 1 {
		t.Errorf("out-of-range channel jain = %v, want 1", j2)
	}
}

func TestStallTrackerCSVs(t *testing.T) {
	st := NewStallTracker(2)
	ch := st.AddChannel("bus0", "photonic")
	st.AddChannel("wl A", "wireless")
	st.Observe(ch, 0, 4)
	st.Observe(ch, 1, 4)

	var tiles bytes.Buffer
	if err := st.WriteTileCSV(&tiles); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tiles.String()), "\n")
	if len(lines) != 3 { // header + 2 tiles
		t.Fatalf("tile CSV has %d lines, want 3:\n%s", len(lines), tiles.String())
	}
	if got, want := lines[0], strings.Join(FairnessTileCSVHeader, ","); got != want {
		t.Errorf("tile CSV header %q, want %q", got, want)
	}
	if lines[1] != "0,1,4,4,0,0,0,4" {
		t.Errorf("tile 0 row = %q", lines[1])
	}

	var jain bytes.Buffer
	if err := st.WriteJainCSV(&jain); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(jain.String()), "\n")
	if len(lines) != 3 { // header + 2 channels
		t.Fatalf("jain CSV has %d lines, want 3:\n%s", len(lines), jain.String())
	}
	if got, want := lines[0], strings.Join(FairnessJainCSVHeader, ","); got != want {
		t.Errorf("jain CSV header %q, want %q", got, want)
	}
	if lines[1] != "bus0,photonic,2,2,8,1" {
		t.Errorf("bus0 row = %q", lines[1])
	}
	if lines[2] != "wl A,wireless,0,0,0,1" {
		t.Errorf("idle wireless row = %q", lines[2])
	}
}

func TestStallTrackerNilSafe(t *testing.T) {
	var st *StallTracker
	st.Observe(0, 0, 1)
	if st.Tiles() != 0 || st.TotalWaitCy() != 0 {
		t.Fatal("nil tracker must report nothing")
	}
	if c, s, m := st.KindTotals(KindPhotonic); c+s+m != 0 {
		t.Fatal("nil tracker KindTotals must be zero")
	}
	if j, _, _, _ := st.ChannelJain(0); j != 1 {
		t.Fatal("nil tracker ChannelJain must default to fair")
	}
}
