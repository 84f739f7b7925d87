package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
)

// Flags is the observation surface of one simulated run. Register
// declares the 16 flags cmd/ownsim and cmd/sweep share; the remaining
// fields are flags only cmd/ownsim registers (sweep leaves them zero).
type Flags struct {
	Telemetry  int
	Dot        string
	Metrics    string
	Trace      string
	Sample     uint64
	Window     uint64
	Manifest   string
	Listen     string
	Energy     string
	Heatmap    string
	Breakdown  string
	Pprof      bool
	Reservoir  int
	Fairness   string
	DumpOnExit string
	Check      bool

	// PerComponent is -percomponent, Watchdog the four -watchdog-* flags
	// and StallTimeout -stall-timeout.
	PerComponent bool
	Watchdog     flightrec.WatchdogConfig
	StallTimeout time.Duration
}

// Register declares the shared observation flags on fs. what names the
// run they observe in the help text ("the run", "the highest-load
// point").
func (f *Flags) Register(fs *flag.FlagSet, what string) {
	fs.IntVar(&f.Telemetry, "telemetry", 0, "print the top-N busiest shared channels of "+what)
	fs.StringVar(&f.Dot, "dot", "", "write the router-level topology as Graphviz DOT to this path")
	fs.StringVar(&f.Metrics, "metrics", "", "write the sampled metric time-series of "+what+" to this path (.csv or .ndjson)")
	fs.StringVar(&f.Trace, "trace", "", "write the per-packet lifecycle trace of "+what+" to this path (.json Chrome trace-event, or .ndjson)")
	fs.Uint64Var(&f.Sample, "sample", 1, "trace every Nth packet (with -trace; 1 = all)")
	fs.Uint64Var(&f.Window, "window", 256, "metric sampling window in simulated cycles (with -metrics)")
	fs.StringVar(&f.Manifest, "manifest", "", "write a machine-readable manifest (JSON) of the invocation to this path")
	fs.StringVar(&f.Listen, "listen", "", "serve live telemetry (/metrics, /healthz, /events, /debug/dump) of "+what+" on this address while it runs (e.g. :9090; port 0 picks a free port)")
	fs.StringVar(&f.Energy, "energy", "", "write the per-component energy attribution of "+what+" to this path (CSV) and print the breakdown table")
	fs.StringVar(&f.Heatmap, "heatmap", "", "write congestion and wireless-energy heatmaps (CSV+SVG) of "+what+" with this path prefix (implies -percomponent)")
	fs.StringVar(&f.Breakdown, "latency-breakdown", "", "write the per-phase latency attribution (CSV+NDJSON+stacked-bar SVG) of "+what+" with this path prefix")
	fs.BoolVar(&f.Pprof, "pprof", false, "mount Go runtime profiling under /debug/pprof/ on the -listen server")
	fs.IntVar(&f.Reservoir, "reservoir", 0, "exact-percentile latency reservoir size in packets per run (0 = default 65536)")
	fs.StringVar(&f.Fairness, "fairness", "", "write token-fairness artifacts (per-tile wait CSV, per-channel Jain CSV, heatmap SVG) of "+what+" with this path prefix")
	fs.StringVar(&f.DumpOnExit, "dump-on-exit", "", "write a full state dump (NDJSON + text) of "+what+" with this path prefix after it ran")
	fs.BoolVar(&f.Check, "check", false, "audit protocol invariants with the conformance checker (internal/check); violations go to stderr and the exit code is non-zero if any fired")
}

// Validate rejects flag values no run can honour.
func (f *Flags) Validate() error {
	switch {
	case f.Sample == 0:
		return errors.New("-sample must be >= 1")
	case f.Window == 0:
		return errors.New("-window must be >= 1")
	case f.Pprof && f.Listen == "":
		return errors.New("-pprof requires -listen")
	}
	return nil
}

// Instrumented reports whether any flag asks to observe a run — what
// makes cmd/sweep re-run its highest-load point. -dot, -manifest and
// -check observe no single run and do not count.
func (f *Flags) Instrumented() bool {
	if f.Telemetry > 0 || f.Listen != "" {
		return true
	}
	for _, g := range groups {
		if g.path(f) != "" {
			return true
		}
	}
	return false
}

// Session is one observed run: the observers f asks for installed on a
// built network, the live plane serving it, and the artifacts it leaves
// behind. The lifecycle is Start, the caller's n.Run, Finish, Emit,
// Close. Every observer is inert, so the run's Result is the bare run's.
type Session struct {
	n        *fabric.Network
	f        *Flags
	logf     func(format string, args ...any)
	srv      *Server
	stopWall func()
}

// Start writes the -dot graph and installs on n what f asks for, in the
// one order that composes: flight recorder (its stall tracker and gauges
// are wired by the probe installer), then probe, then checker; then it
// starts the live server and the wall-clock watchdog. It is the single
// place that derives which observers the flags imply. Diagnostics — the
// live address, watchdog trips, invariant violations — go to logf.
func Start(n *fabric.Network, f *Flags, logf func(format string, args ...any)) (*Session, error) {
	s := &Session{n: n, f: f, logf: logf}
	if f.Dot != "" {
		if err := os.WriteFile(f.Dot, []byte(n.DOT()), 0o644); err != nil {
			return nil, err
		}
	}
	// The flight recorder backs the fairness/dump artifacts, the watchdog
	// detectors and the /debug/dump endpoint.
	wd := f.Watchdog
	recorder := f.Fairness != "" || f.DumpOnExit != "" || f.Listen != "" ||
		wd.StarveBudgetCy > 0 || wd.StallWindows > 0 || wd.SatWindows > 0 || f.StallTimeout > 0
	if recorder {
		fr := flightrec.New(flightrec.Options{Watchdog: wd})
		fr.Dog.OnTrip = func(reason string, snap *flightrec.Snapshot) {
			s.logDump("WATCHDOG TRIP: "+reason, snap)
		}
		n.InstallFlightRecorder(fr)
	}
	if recorder || f.Metrics != "" || f.Trace != "" || f.Heatmap != "" || f.Breakdown != "" {
		// Heatmaps need per-router counters to resolve congestion per tile.
		// The recorder needs spans — its stall tracker (token.* gauges,
		// fairness artifacts) is fed through the span tracker, which also
		// lists a dump's in-flight packets — and a sampler for its frames.
		opts := probe.Options{
			PerComponent: f.PerComponent || f.Heatmap != "",
			Spans:        recorder || f.Breakdown != "",
		}
		if recorder || f.Metrics != "" {
			opts.MetricsEvery = f.Window
		}
		if f.Trace != "" {
			opts.TraceEvery = f.Sample
		}
		n.InstallProbe(probe.New(opts))
	}
	if f.Check {
		n.InstallChecker(check.New(), func(v check.Violation, snap *flightrec.Snapshot) {
			s.logDump("INVARIANT VIOLATION: "+v.String(), snap)
		})
	}
	// The live plane is read-only: it observes sampler snapshots over HTTP
	// and feeds nothing back. Its address is deliberately kept out of the
	// manifest (ephemeral ports would break byte-identical reruns).
	if f.Listen != "" {
		srv := New()
		srv.Attach(n.Probe)
		if f.Pprof {
			srv.EnablePprof()
		}
		srv.SetBuildInfo(probe.ReadBuildInfo())
		srv.SetDumpProvider(n.FlightRec.Dog.RequestDump)
		addr, err := srv.Start(f.Listen)
		if err != nil {
			return nil, err
		}
		s.srv = srv
		logf("live telemetry on http://%s/metrics", addr)
	}
	if f.StallTimeout > 0 {
		s.stopWall = n.FlightRec.Dog.StartWall(f.StallTimeout, func(cycle uint64, stacks []byte) {
			logf("no cycle progress for %s at cycle %d; goroutine stacks:\n%s", f.StallTimeout, cycle, stacks)
		})
	}
	return s, nil
}

// logDump reports a watchdog trip or invariant violation with the state
// snapshot taken at it (nil after a checker's first violation).
func (s *Session) logDump(what string, snap *flightrec.Snapshot) {
	var b strings.Builder
	if snap != nil {
		if err := snap.WriteText(&b); err != nil {
			fmt.Fprintf(&b, "(dump failed: %v)", err)
		}
	}
	s.logf("%s\n%s", what, b.String())
}

// Finish closes the run: a checked run gets a final structural audit,
// the watchdog stops expecting ticks (dump requests now render against
// the final state) and /healthz reads "done". Call it right after n.Run.
func (s *Session) Finish() {
	n := s.n
	if ck := n.Checker; ck != nil {
		if err := n.CheckInvariants(); err != nil {
			ck.Report(n.Eng.Cycle(), check.RuleState, n.Name, err.Error())
		}
	}
	if fr := n.FlightRec; fr != nil {
		fr.Dog.Finish(n.Eng.Cycle())
	}
	if s.srv != nil {
		s.srv.MarkDone()
	}
}

// Emit writes every requested artifact group in table order, digests the
// files and the engine/pool introspection into man when one is being
// built, and reports to out: the -telemetry and -energy tables, one
// status line per group, then warnings. The report is written once, also
// when a group fails; the first error is returned.
func (s *Session) Emit(man *probe.Manifest, out io.Writer) error {
	var b strings.Builder
	err := s.emit(man, &b)
	if _, werr := io.WriteString(out, b.String()); err == nil {
		err = werr
	}
	return err
}

func (s *Session) emit(man *probe.Manifest, b *strings.Builder) error {
	n, f := s.n, s.f
	if man != nil {
		ei, pi := n.EngineIntro(), n.PoolIntro()
		man.Engine, man.Pools = &ei, &pi
	}
	if f.Telemetry > 0 {
		fmt.Fprintf(b, "\n%s", n.Telemetry(f.Telemetry))
	}
	if f.Energy != "" && n.Meter != nil {
		fmt.Fprintf(b, "\n%s", n.Meter.EnergyTable(n.Eng.Cycle()))
	}
	for _, g := range groups {
		path := g.path(f)
		if path == "" {
			continue
		}
		files, err := g.emit(n, path, man)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "%-12s %s\n", g.name+":", strings.Join(files, ", "))
	}
	if d := n.Probe.Tracer().Dropped(); d > 0 {
		fmt.Fprintf(b, "  WARNING: %d trace events dropped at the %d-event cap; raise -sample\n", d, probe.DefaultMaxTraceEvents)
	}
	if mm := n.Probe.Spans().Mismatches(); mm > 0 {
		fmt.Fprintf(b, "  WARNING: %d packets failed the span sum identity\n", mm)
	}
	if fr := n.FlightRec; fr != nil && fr.Dog.Trips() > 0 {
		fmt.Fprintf(b, "  WARNING: watchdog tripped %d time(s); first: %s\n", fr.Dog.Trips(), fr.Dog.TripReasons()[0])
	}
	return nil
}

// Violations returns how many invariant violations the checker recorded
// (0 without -check); read it after Finish.
func (s *Session) Violations() uint64 {
	if s.n.Checker == nil {
		return 0
	}
	return s.n.Checker.Total()
}

// Close stops the wall-clock watchdog and the live server.
func (s *Session) Close() {
	if s.stopWall != nil {
		s.stopWall()
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			s.logf("live telemetry server: %v", err)
		}
	}
}
