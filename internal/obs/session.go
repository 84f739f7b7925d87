package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
)

// Flags is the observation surface of one simulated run. Register
// declares the four flags cmd/ownsim and cmd/sweep share; Watchdog, the
// watchdog's liveness budget in cycles (flightrec.Options.Watchdog), is
// -watchdog, which only cmd/ownsim registers (sweep leaves it zero).
type Flags struct {
	Out       string
	Listen    string
	Check     bool
	Telemetry int
	Watchdog  uint64
}

// A record traces every packet and samples the metrics once per
// flightrec.Window cycles, the watchdog's check window; the manifest
// config says so under "sample" and "window".
const traceEvery = 1

// Register declares the shared observation flags on fs. what names the
// run they observe in the help text ("the run", "the highest-load
// point").
func (f *Flags) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&f.Out, "out", "", "write the record of "+what+" into this directory: every artifact under a fixed name, then manifest.json with their digests")
	fs.StringVar(&f.Listen, "listen", "", "serve live telemetry (/metrics, /healthz, /events, /debug/dump, /debug/pprof/) of "+what+" on this address while it runs (e.g. :9090; port 0 picks a free port)")
	fs.BoolVar(&f.Check, "check", false, "audit protocol invariants with the conformance checker (internal/check); violations go to stderr and the exit code is non-zero if any fired")
	fs.IntVar(&f.Telemetry, "telemetry", 0, "print the top-N busiest shared channels of "+what)
}

// OpenRecord creates the -out directory and starts the record's manifest
// for tool: config plus the observation settings, the seed and the
// binary's provenance. Call it before anything is built, so a directory
// that cannot be created fails before the run. Without -out it returns
// nil and writes nothing.
func (f *Flags) OpenRecord(tool string, cores int, seed uint64, config map[string]string) (*probe.Manifest, error) {
	if f.Out == "" {
		return nil, nil
	}
	if err := os.MkdirAll(f.Out, 0o755); err != nil {
		return nil, err
	}
	config["sample"] = strconv.Itoa(traceEvery)
	config["window"] = strconv.Itoa(flightrec.Window)
	config["check"] = strconv.FormatBool(f.Check)
	return &probe.Manifest{Tool: tool, Config: config, Cores: cores, Seed: seed, Build: probe.ReadBuildInfo()}, nil
}

// Session is one observed run: the observers f asks for installed on a
// built network, the live plane serving it, and the artifacts it leaves
// behind. The lifecycle is Start, the caller's n.Run, Finish, Emit,
// Close. Every observer is inert, so the run's Result is the bare run's.
type Session struct {
	n    *fabric.Network
	f    *Flags
	logf func(format string, args ...any)
	srv  *Server
}

// Start writes the record's topology.dot and installs on n what f asks
// for, in the one order that composes: flight recorder (its watchdog
// ticks before the sampler, and the probe installer registers its
// stall.* gauges last), then probe, then checker; then it starts the
// live server. It is the single place that derives the observers from
// two facts. A record, a live server or a watchdog budget installs the
// recorder and an aggregate probe with spans and a sampler: the spans
// back the breakdown and fairness artifacts, the recorder the dump, the
// detectors and /debug/dump. Only a record adds the tracer. Diagnostics —
// the live address, watchdog trips, invariant violations — go to logf.
func Start(n *fabric.Network, f *Flags, logf func(format string, args ...any)) (*Session, error) {
	s := &Session{n: n, f: f, logf: logf}
	if f.Out != "" {
		if err := os.WriteFile(filepath.Join(f.Out, "topology.dot"), []byte(n.DOT()), 0o644); err != nil {
			return nil, err
		}
	}
	if f.Out != "" || f.Listen != "" || f.Watchdog > 0 {
		fr := flightrec.New(flightrec.Options{Watchdog: f.Watchdog})
		fr.Dog.OnTrip = func(reason string, snap *flightrec.Snapshot) {
			s.logDump("WATCHDOG TRIP: "+reason, snap)
		}
		n.InstallFlightRecorder(fr)
		opts := probe.Options{Spans: true, MetricsEvery: flightrec.Window}
		if f.Out != "" {
			opts.TraceEvery = traceEvery
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
		srv.SetBuildInfo(probe.ReadBuildInfo())
		srv.SetDumpProvider(n.FlightRec.Dog.RequestDump)
		addr, err := srv.Start(f.Listen)
		if err != nil {
			return nil, err
		}
		s.srv = srv
		logf("live telemetry on http://%s/metrics", addr)
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

// Finish closes the run: a checked run gets a final structural audit
// (fabric.Network.Audit), the watchdog stops expecting ticks (dump
// requests now render against the final state) and /healthz reads
// "done". Call it right after n.Run.
func (s *Session) Finish() {
	n := s.n
	if n.Checker != nil {
		n.Audit()
	}
	if fr := n.FlightRec; fr != nil {
		fr.Dog.Finish()
	}
	if s.srv != nil {
		s.srv.MarkDone()
	}
}

// Emit reports to out the -telemetry table and, for a record, the
// energy breakdown table; then it writes the record into the -out
// directory: every artifact group in table order, each file digested
// into man with the engine/pool introspection, one status line per
// group, and manifest.json last. Warnings close the report, which is
// written once, also when a group fails; the first error is returned.
// man is OpenRecord's manifest (nil without -out).
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
	if f.Telemetry > 0 {
		fmt.Fprintf(b, "\n%s", n.Telemetry(f.Telemetry))
	}
	if man != nil {
		fmt.Fprintf(b, "\n%s", n.Meter.EnergyTable(n.Eng.Cycle()))
		ei, pi := n.EngineIntro(), n.PoolIntro()
		man.Engine, man.Pools = &ei, &pi
		for _, g := range groups {
			files, err := g.emit(n, f.Out, man)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%-12s %s\n", g.name+":", strings.Join(files, ", "))
		}
		if err := WriteManifest(man, f.Out); err != nil {
			return err
		}
		fmt.Fprintf(b, "%-12s %s\n", "manifest:", filepath.Join(f.Out, "manifest.json"))
	}
	if d := n.Probe.Tracer().Dropped(); d > 0 {
		fmt.Fprintf(b, "  WARNING: %d trace events dropped at the %d-event cap\n", d, probe.DefaultMaxTraceEvents)
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

// Close stops the live server.
func (s *Session) Close() {
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			s.logf("live telemetry server: %v", err)
		}
	}
}
