package flightrec

import "ownsim/internal/probe"

// RingFrames is the number of most recent sampler windows a state dump
// carries. At the default sampling stride of 256 cycles it covers the
// last ~16k simulated cycles — enough context around a wedge without
// dumping the whole run.
const RingFrames = 64

// Frame is one recorded sampler window: the snapshot cycle plus every
// registered metric value in registration order.
type Frame struct {
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// Recorder is the flight recorder's window onto the probe sampler: the
// sampler already retains every row of the run, so the recorder stores
// nothing and presents the most recent RingFrames of them. It is read
// only from dump paths on the simulation goroutine, so it needs no
// locking. An unattached recorder (no sampling probe) reports nothing.
type Recorder struct {
	smp *probe.Sampler
}

// Attach points the recorder at the run's sampler; the installer calls it
// once the probe is wired.
func (r *Recorder) Attach(s *probe.Sampler) { r.smp = s }

// Names returns the metric names aligned with frame values.
func (r *Recorder) Names() []string { return r.smp.Names() }

// Total returns the number of windows sampled so far, including those
// older than the RingFrames a dump shows.
func (r *Recorder) Total() uint64 { return uint64(r.smp.Rows()) }

// Tail returns the last k sampled windows in chronological order (k <= 0
// or beyond RingFrames returns the last RingFrames). The frames share the
// sampler's rows; callers must not modify them.
func (r *Recorder) Tail(k int) []Frame {
	n := r.smp.Rows()
	if k <= 0 || k > RingFrames {
		k = RingFrames
	}
	if k > n {
		k = n
	}
	out := make([]Frame, k)
	for i := range out {
		out[i].Cycle, out[i].Values = r.smp.Row(n - k + i)
	}
	return out
}
