// Package flightrec is the simulator's black-box diagnostics layer: the
// state dump (Snapshot) — liveness counters, engine and pool
// introspection, and the full arbitration state, each shared photonic and
// wireless medium's per-writer token waits included — and the Recorder
// that counts the probe sampler's windows. The sampled metrics themselves
// live in the record's metrics.csv, not in the dump.
//
// The package follows the probe layer's contracts: everything is inert
// (recording never feeds back into the simulation, so results are
// bit-identical with the recorder on or off), deterministic (channel and
// writer state lives in index-ordered slices, never maps; dump bytes
// depend only on simulated state), and single-goroutine (everything runs
// on the simulation goroutine; the package takes no lock).
// fabric.Network wires a FlightRecorder into a built topology via
// InstallFlightRecorder; the CLIs get one through obs.Start, which knows
// the install order. A hung process is diagnosed from outside it:
// SIGQUIT prints every goroutine's stack.
package flightrec

// Window is the sampling window of a record in simulated cycles
// (obs.Start's probe): one metrics.csv row per Window cycles.
const Window = 256

// Options parameterizes a FlightRecorder. It has no fields; New keeps
// taking it so that callers constructing flightrec.Options{} (the
// benchmark harness among them) compile unchanged.
type Options struct{}

// FlightRecorder bundles the diagnostics facilities. Construct with New,
// then hand to fabric.Network.InstallFlightRecorder.
type FlightRecorder struct {
	// Rec counts the sampler's windows.
	Rec *Recorder
}

// New creates a detached FlightRecorder.
func New(Options) *FlightRecorder {
	return &FlightRecorder{Rec: &Recorder{}}
}
