// Package flightrec is the simulator's black-box diagnostics layer: a
// flight recorder showing the probe sampler's most recent metric
// windows, per-tile token-wait stall accounting and per-writer wait
// state for the shared photonic and wireless media, and a watchdog that
// detects wedged or starving runs and dumps the full arbitration state.
//
// The package follows the probe layer's contracts: everything is inert
// (recording never feeds back into the simulation, so results are
// bit-identical with the recorder on or off), deterministic (tile and
// channel aggregates live in index-ordered slices, never maps; dump
// bytes depend only on simulated state), and nil-safe (a nil tracker or
// watchdog method receiver records nothing). fabric.Network wires a
// FlightRecorder into a built topology via InstallFlightRecorder; the
// CLIs get one through obs.Start, which knows the install order.
//
// Two watchdog variants share one implementation: the deterministic
// in-engine variant is a sim.Ticker whose checks run on simulated-cycle
// boundaries (headless runs need no goroutine), and the wall-clock
// variant (Watchdog.StartWall) is a goroutine that only reads an atomic
// cycle counter and the process's goroutine stacks — it never touches
// simulation state, so it cannot perturb results.
package flightrec

// Options parameterizes a FlightRecorder.
type Options struct {
	// Watchdog configures the in-engine stall detectors.
	Watchdog WatchdogConfig
}

// FlightRecorder bundles the three diagnostics facilities. Construct
// with New, then hand to fabric.Network.InstallFlightRecorder, which
// sizes the stall tracker to the topology and schedules the watchdog.
type FlightRecorder struct {
	// Rec is the view of the most recent sampler windows.
	Rec *Recorder
	// Stall is the per-tile token-wait tracker; nil until the recorder
	// is installed on a network (the tile count comes from the
	// topology).
	Stall *StallTracker
	// Dog is the stall watchdog.
	Dog *Watchdog
}

// New creates a detached FlightRecorder.
func New(o Options) *FlightRecorder {
	return &FlightRecorder{
		Rec: &Recorder{},
		Dog: NewWatchdog(o.Watchdog),
	}
}

// InitStall sizes the per-tile stall tracker; the installer calls it
// with the topology's tile count.
func (fr *FlightRecorder) InitStall(tiles int) {
	fr.Stall = NewStallTracker(tiles)
}
