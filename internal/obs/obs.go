// Package obs is the live telemetry plane: a small HTTP server that
// exposes a running simulation's probe metrics as Prometheus text
// (/metrics), a liveness/progress snapshot (/healthz), a streaming
// NDJSON feed of sampler windows (/events), the flight recorder's state
// dump (/debug/dump) and Go's runtime profiles (/debug/pprof/). It is
// strictly read-only: the simulation goroutine publishes immutable
// snapshots through Server.Publish (wired to probe.Sampler.OnSample by
// Attach), HTTP handlers only ever read the latest snapshot under a
// mutex, and nothing ever flows from the server back into the
// simulation. Enabling the
// plane therefore cannot change simulation results or any file artifact
// — the determinism tests assert byte-identical summaries and manifests
// with the server on and off.
//
// The package also owns the one path from a command line to an observed
// run: Flags declares the observation flags cmd/ownsim and cmd/sweep
// share, Start installs what they imply on a built network and returns
// the Session that writes the -out record — every artifact under a fixed
// name, then manifest.json (session.go, artifacts.go).
//
// The package is inside internal/lint's deterministic scope: it uses no wall
// clock, no global RNG and no environment reads; all timestamps in
// served payloads are simulated cycles. (net/http keeps its own internal
// timers, but none of them reach any payload byte.)
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"

	"ownsim/internal/probe"
)

// Server serves read-only telemetry snapshots over HTTP. The mutable
// state below opts into internal/lint's lockguard analyzer: every field
// carrying a "guarded by mu" comment may only be touched by methods that
// take the lock (or by *Locked helpers whose callers hold it).
type Server struct {
	mu sync.Mutex
	// guarded by mu (metric metadata, fixed at Attach time in registration order)
	meta []probe.MetricInfo
	// guarded by mu (sanitized, collision-free Prometheus names, index-aligned with meta)
	promNames []string
	// guarded by mu (latest snapshot cycle)
	cycle uint64
	// guarded by mu (latest snapshot values)
	values []float64
	// guarded by mu (snapshots published so far)
	samples uint64
	// guarded by mu (simulation finished)
	done bool
	// guarded by mu (latest snapshot pre-rendered as one NDJSON line)
	line string
	// guarded by mu (connected /events clients)
	subs []subscriber
	// guarded by mu (next subscriber id)
	nextSub int
	// guarded by mu (samples lost to slow subscribers)
	dropped uint64
	// guarded by mu (response writes that failed, i.e. disconnected clients)
	writeErrs uint64
	// guarded by mu (unexpected Serve exit, surfaced by Close)
	serveErr error

	ln  net.Listener
	srv *http.Server

	// dumpFn serves /debug/dump state dumps; set before Start via
	// SetDumpProvider (typically flightrec.Watchdog.RequestDump, which
	// hands the request to the simulation goroutine).
	dumpFn func(format string) ([]byte, error)
	// build identifies the binary in /healthz; set before Start via
	// SetBuildInfo.
	build *probe.BuildInfo
}

// subscriber is one connected /events client.
type subscriber struct {
	id int
	ch chan string
}

// New creates a detached server; call Attach to wire a probe and Start
// to begin serving.
func New() *Server {
	return &Server{}
}

// Attach wires the server to a probe: metric metadata is copied from the
// registry and every sampler snapshot is published to HTTP clients. Call
// it after fabric.Network.InstallProbe (the registry must be fully
// populated) and before the run. A nil probe or a probe without a
// sampler attaches metadata only — /metrics then serves whatever was
// registered, with no updates.
func (s *Server) Attach(p *probe.Probe) {
	reg := p.Registry()
	s.mu.Lock()
	s.meta = reg.Meta()
	s.promNames = promNames(s.meta)
	s.mu.Unlock()
	if smp := p.Sampler(); smp != nil {
		smp.OnSample = s.Publish
	}
}

// Publish records a new snapshot and fans it out to /events subscribers.
// It runs on the simulation goroutine and never blocks: a subscriber
// that cannot keep up loses samples (counted in /healthz as dropped).
func (s *Server) Publish(cycle uint64, values []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cycle = cycle
	if cap(s.values) < len(values) {
		s.values = make([]float64, len(values))
	}
	s.values = s.values[:len(values)]
	copy(s.values, values)
	s.samples++
	s.line = string(probe.AppendNDJSON(nil, cycle, s.meta, values))
	for _, sub := range s.subs {
		select {
		case sub.ch <- s.line:
		default:
			s.dropped++
		}
	}
}

// MarkDone flips /healthz status from "running" to "done"; the CLI tools
// call it after the simulation finishes, before emitting artifacts.
func (s *Server) MarkDone() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// SetDumpProvider mounts a /debug/dump endpoint serving full state
// dumps from the given provider. Call before Start. The provider is
// invoked once per request with the ?format= query value ("" means
// json); it must be safe to call from HTTP goroutines — the flight
// recorder's watchdog satisfies this by bridging requests onto the
// simulation goroutine.
func (s *Server) SetDumpProvider(fn func(format string) ([]byte, error)) { s.dumpFn = fn }

// SetBuildInfo attaches binary provenance (module version, VCS
// revision) to the /healthz payload. Call before Start; nil hides the
// section.
func (s *Server) SetBuildInfo(bi *probe.BuildInfo) { s.build = bi }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// until Close. It returns the bound address. Besides the telemetry
// endpoints it mounts Go's runtime profiling handlers (net/http/pprof)
// under /debug/pprof/; a hung run's goroutine stacks are
// /debug/pprof/goroutine?debug=2. The profiler reads runtime state only —
// like every other endpoint it cannot reach back into the simulation, so
// results and artifacts stay byte-identical with it on.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/events", s.handleEvents)
	if s.dumpFn != nil {
		mux.HandleFunc("/debug/dump", s.handleDump)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed after Close is the normal exit; anything else
		// is recorded and surfaced by Close.
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and all in-flight handlers; it reports any
// unexpected error the serve loop died with.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.mu.Lock()
	if err == nil && s.serveErr != nil {
		err = s.serveErr
	}
	s.mu.Unlock()
	return err
}

// noteWriteErr counts a failed response write: a disconnected client is
// routine for a live telemetry plane, but the failure must not vanish —
// /healthz reports the tally as write_errors.
func (s *Server) noteWriteErr() {
	s.mu.Lock()
	s.writeErrs++
	s.mu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.mu.Lock()
	s.writePrometheusLocked(&b)
	s.mu.Unlock()
	if _, err := fmt.Fprint(w, b.String()); err != nil {
		s.noteWriteErr()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	status := "running"
	if s.done {
		status = "done"
	}
	payload := map[string]any{
		"status":       status,
		"cycle":        s.cycle,
		"samples":      s.samples,
		"metrics":      len(s.meta),
		"dropped":      s.dropped,
		"write_errors": s.writeErrs,
	}
	s.mu.Unlock()
	if s.build != nil {
		payload["build"] = s.build
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		s.noteWriteErr()
	}
}

// handleDump serves a full simulation state dump. The default (and
// "?format=json") rendering is the snapshot's JSON; "?format=text" is
// the human-readable variant. While the simulation runs the dump is
// rendered on the simulation goroutine at the next engine tick, so the
// bytes reflect one consistent cycle.
func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	data, err := s.dumpFn(format)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	if _, err := w.Write(data); err != nil {
		s.noteWriteErr()
	}
}

// handleEvents streams sampler windows as NDJSON: the latest snapshot
// first (if any), then every new one as it is published, until the
// client disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Subscribe before the headers go out: a client whose request has
	// returned is subscribed, so nothing published after that is missed.
	ch := make(chan string, 64)
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs = append(s.subs, subscriber{id: id, ch: ch})
	last := s.line
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		for i, sub := range s.subs {
			if sub.id == id {
				s.subs = append(s.subs[:i], s.subs[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}()

	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Flush the headers immediately so a client that connects before the
	// first sample still sees the stream open instead of blocking.
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}

	emit := func(line string) bool {
		if _, err := fmt.Fprintln(w, line); err != nil {
			s.noteWriteErr()
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	if last != "" && !emit(last) {
		return
	}
	for {
		select {
		case line := <-ch:
			if !emit(line) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
