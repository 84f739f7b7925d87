package flightrec

import "ownsim/internal/probe"

// Recorder counts the probe sampler's windows. The sampler keeps every
// row of the run and metrics.csv holds them all, so the recorder stores
// nothing and the dump carries none of them. It keeps Total because the
// benchmark harness reports it (bench/workloads.go, flightrec.frames).
// An unattached recorder (no sampling probe) counts nothing.
type Recorder struct {
	smp *probe.Sampler
}

// Attach points the recorder at the run's sampler; the installer calls it
// once the probe is wired.
func (r *Recorder) Attach(s *probe.Sampler) { r.smp = s }

// Total returns the number of windows sampled so far.
func (r *Recorder) Total() uint64 { return uint64(r.smp.Rows()) }
