// Package obs is the one path from a command line to an observed run:
// Flags declares the observation flags cmd/ownsim and cmd/sweep share,
// Start installs what they imply on a built network and returns the
// Session that writes the -out record — every artifact under a fixed
// name, then manifest.json (artifacts.go). The record, written once the
// run has finished, is the run's one observation surface.
//
// The package is inside internal/lint's deterministic scope: it uses no
// wall clock, no global RNG and no environment reads; every timestamp in
// a record is a simulated cycle.
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

// Flags is the observation surface of one simulated run: the two flags
// cmd/ownsim and cmd/sweep share, which Register declares.
type Flags struct {
	Out   string
	Check bool
}

// A record traces every packet and samples the metrics once per
// flightrec.Window cycles; the manifest config says so under "sample"
// and "window".
const traceEvery = 1

// Register declares the shared observation flags on fs. what names the
// run they observe in the help text ("the run", "the highest-load
// point").
func (f *Flags) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&f.Out, "out", "", "write the record of "+what+" into this directory: every artifact under a fixed name, then manifest.json with their digests")
	fs.BoolVar(&f.Check, "check", false, "audit protocol invariants with the conformance checker (internal/check); violations go to stderr and the exit code is non-zero if any fired")
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
// built network, and the artifacts it leaves behind. The lifecycle is
// Start, the caller's n.Run, Finish, Emit. Every observer is inert, so
// the run's Result is the bare run's.
type Session struct {
	n    *fabric.Network
	f    *Flags
	logf func(format string, args ...any)
}

// Start writes the record's topology.dot and installs on n what f asks
// for, in the one order that composes: flight recorder (the probe
// installer wires it and registers its stall.* gauges last), then probe,
// then checker. It is the single place that derives the observers from
// two facts. A record installs the recorder and a probe with spans, a
// sampler and the tracer: the spans back the breakdown and fairness
// artifacts, the recorder the dump. Invariant violations go to logf.
func Start(n *fabric.Network, f *Flags, logf func(format string, args ...any)) (*Session, error) {
	s := &Session{n: n, f: f, logf: logf}
	if f.Out != "" {
		if err := os.WriteFile(filepath.Join(f.Out, "topology.dot"), []byte(n.DOT()), 0o644); err != nil {
			return nil, err
		}
		n.InstallFlightRecorder(flightrec.New(flightrec.Options{}))
		n.InstallProbe(probe.New(probe.Options{Spans: true, MetricsEvery: flightrec.Window, TraceEvery: traceEvery}))
	}
	if f.Check {
		n.InstallChecker(check.New(), func(v check.Violation, snap *flightrec.Snapshot) {
			s.logDump("INVARIANT VIOLATION: "+v.String(), snap)
		})
	}
	return s, nil
}

// logDump reports an invariant violation with the state snapshot taken
// at it (nil after a checker's first violation).
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
// (fabric.Network.Audit). Call it right after n.Run.
func (s *Session) Finish() {
	if s.n.Checker != nil {
		s.n.Audit()
	}
}

// Emit writes the record into the -out directory and reports it to out:
// every artifact group in table order, each file digested into man with
// the engine/pool introspection, one status line per group, and
// manifest.json last. Warnings close the report, which is written once,
// also when a group fails; the first error is returned. man is OpenRecord's manifest; without -out it is
// nil and Emit writes nothing.
func (s *Session) Emit(man *probe.Manifest, out io.Writer) error {
	var b strings.Builder
	err := s.emit(man, &b)
	if _, werr := io.WriteString(out, b.String()); err == nil {
		err = werr
	}
	return err
}

func (s *Session) emit(man *probe.Manifest, b *strings.Builder) error {
	if man == nil {
		return nil
	}
	n, dir := s.n, s.f.Out
	ei, pi := n.EngineIntro(), n.PoolIntro()
	man.Engine, man.Pools = &ei, &pi
	for _, g := range groups {
		files, err := g.emit(n, dir, man)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "%-12s %s\n", g.name+":", strings.Join(files, ", "))
	}
	if err := WriteManifest(man, dir); err != nil {
		return err
	}
	fmt.Fprintf(b, "%-12s %s\n", "manifest:", filepath.Join(dir, "manifest.json"))
	if d := n.Probe.Tracer().Dropped(); d > 0 {
		fmt.Fprintf(b, "  WARNING: %d trace events dropped at the %d-event cap\n", d, probe.DefaultMaxTraceEvents)
	}
	if mm := n.Probe.Spans().Mismatches(); mm > 0 {
		fmt.Fprintf(b, "  WARNING: %d packets failed the span sum identity\n", mm)
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
