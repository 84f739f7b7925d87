// Package flightrec is the simulator's black-box diagnostics layer: a
// flight recorder showing the probe sampler's most recent metric
// windows, and a watchdog that detects wedged or starving runs and dumps
// the full arbitration state, each shared photonic and wireless medium's
// per-writer token waits included.
//
// The package follows the probe layer's contracts: everything is inert
// (recording never feeds back into the simulation, so results are
// bit-identical with the recorder on or off), deterministic (channel and
// writer state lives in index-ordered slices, never maps; dump bytes
// depend only on simulated state), and single-goroutine (everything runs
// on the simulation goroutine; the package takes no lock).
// fabric.Network wires a FlightRecorder into a built topology via
// InstallFlightRecorder; the CLIs get one through obs.Start, which knows
// the install order.
//
// The watchdog is a sim.Ticker whose checks run on simulated-cycle
// boundaries, so headless runs need no goroutine. A hung process is
// diagnosed from outside it: SIGQUIT prints every goroutine's stack.
package flightrec

// Options parameterizes a FlightRecorder.
type Options struct {
	// Watchdog is the watchdog's liveness budget in cycles: it trips when
	// a channel writer has waited for its token, or the network has
	// ejected nothing while flits are in flight, for longer. 0 = off.
	Watchdog uint64
}

// FlightRecorder bundles the diagnostics facilities. Construct with New,
// then hand to fabric.Network.InstallFlightRecorder, which gives the
// watchdog its channels and schedules it.
type FlightRecorder struct {
	// Rec is the view of the most recent sampler windows.
	Rec *Recorder
	// Dog is the liveness watchdog.
	Dog *Watchdog
}

// New creates a detached FlightRecorder.
func New(o Options) *FlightRecorder {
	return &FlightRecorder{
		Rec: &Recorder{},
		Dog: NewWatchdog(o.Watchdog),
	}
}
