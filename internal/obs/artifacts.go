package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"ownsim/internal/fabric"
	"ownsim/internal/plot"
	"ownsim/internal/power"
	"ownsim/internal/probe"
)

// Artifact emission for the observation flags shared by cmd/ownsim and
// cmd/sweep. groups is the ordered table of what a run can leave on disk;
// every group renders its files through writeFiles, which builds each
// file in memory first so the manifest digests exactly the bytes written.
// Content depends only on simulation state, never on the live telemetry
// server.

// groups lists the artifact groups in emission order — the order of the
// status lines Session.Emit reports and of the manifest's artifact
// entries. path selects the flag that requests the group: a file path
// for the single-file groups, a path prefix for the rest.
var groups = []struct {
	name string
	path func(*Flags) string
	emit func(n *fabric.Network, path string, man *probe.Manifest) ([]string, error)
}{
	{"metrics", func(f *Flags) string { return f.Metrics }, EmitMetrics},
	{"trace", func(f *Flags) string { return f.Trace }, EmitTrace},
	{"energy", func(f *Flags) string { return f.Energy }, EmitEnergyCSV},
	{"heatmaps", func(f *Flags) string { return f.Heatmap }, EmitHeatmaps},
	{"breakdown", func(f *Flags) string { return f.Breakdown }, EmitLatencyBreakdown},
	{"fairness", func(f *Flags) string { return f.Fairness }, EmitFairness},
	{"dump", func(f *Flags) string { return f.DumpOnExit }, EmitDump},
}

// file is one artifact of a group: its manifest name, the suffix its
// path adds to the group's path and the renderer of its content.
type file struct {
	name, suffix string
	render       func(w io.Writer) error
}

// svg adapts a plot figure to a file renderer.
func svg(fig interface{ SVG() string }) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, fig.SVG())
		return err
	}
}

// writeFiles renders each file, writes it to path+suffix and digests it
// into the manifest when one is being built. It returns the paths
// written so far, so a failure still names what reached the disk.
func writeFiles(path string, man *probe.Manifest, files ...file) ([]string, error) {
	var written []string
	var buf bytes.Buffer
	for _, f := range files {
		buf.Reset()
		if err := f.render(&buf); err != nil {
			return written, err
		}
		dst := path + f.suffix
		if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
			return written, err
		}
		if man != nil {
			man.AddArtifact(f.name, dst, buf.Bytes())
		}
		written = append(written, dst)
	}
	return written, nil
}

// WriteManifest serializes the manifest to path.
func WriteManifest(man *probe.Manifest, path string) error {
	_, err := writeFiles(path, nil, file{render: man.WriteJSON})
	return err
}

// EmitMetrics writes the sampled metric time-series to path: NDJSON when
// the path ends in ".ndjson", CSV otherwise. It requires a probe with
// sampling enabled (Options.MetricsEvery).
func EmitMetrics(n *fabric.Network, path string, man *probe.Manifest) ([]string, error) {
	s := n.Probe.Sampler()
	if s == nil {
		return nil, fmt.Errorf("obs: metrics requested but sampling is not enabled")
	}
	render := s.WriteCSV
	if strings.HasSuffix(path, ".ndjson") {
		render = s.WriteNDJSON
	}
	return writeFiles(path, man, file{name: "metrics", render: render})
}

// EmitTrace writes the per-packet lifecycle trace to path: NDJSON when
// the path ends in ".ndjson", Chrome trace-event JSON otherwise. It
// requires a probe with tracing enabled (Options.TraceEvery).
func EmitTrace(n *fabric.Network, path string, man *probe.Manifest) ([]string, error) {
	t := n.Probe.Tracer()
	if t == nil {
		return nil, fmt.Errorf("obs: trace requested but tracing is not enabled")
	}
	render := t.WriteChrome
	if strings.HasSuffix(path, ".ndjson") {
		render = t.WriteNDJSON
	}
	return writeFiles(path, man, file{name: "trace", render: render})
}

// EmitEnergyCSV writes the network's per-component energy attribution
// (power.Meter.WriteEnergyCSV over the simulated cycles) to path.
func EmitEnergyCSV(n *fabric.Network, path string, man *probe.Manifest) ([]string, error) {
	if n.Meter == nil {
		return nil, fmt.Errorf("obs: energy attribution requested but the network has no power meter")
	}
	return writeFiles(path, man, file{name: "energy", render: func(w io.Writer) error {
		return n.Meter.WriteEnergyCSV(w, n.Eng.Cycle())
	}})
}

// EmitHeatmaps writes the heatmap artifacts with the given path prefix
// and returns the files written:
//
//	<prefix>_congestion.csv/.svg — per-router stall counts (requires a
//	    per-component probe for per-router resolution);
//	<prefix>_energy.csv/.svg     — per-wireless-channel transmit energy,
//	    labelled with the channel's link-distance class (skipped when the
//	    network has no wireless channels).
func EmitHeatmaps(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	congestion := &plot.Heatmap{
		Title:  fmt.Sprintf("%s: router congestion (credit+busy stalls)", n.Name),
		Labels: n.RouterLabels(),
		Values: n.CongestionValues(),
	}
	files := []file{
		{"congestion_heatmap", "_congestion.csv", congestion.WriteCSV},
		{"congestion_heatmap_svg", "_congestion.svg", svg(congestion)},
	}
	var labels []string
	var values []float64
	n.Meter.EachWirelessChannel(func(id int, class string, pj power.Picojoules) {
		labels = append(labels, fmt.Sprintf("ch%d/%s", id, class))
		values = append(values, float64(pj))
	})
	if len(labels) > 0 {
		energy := &plot.Heatmap{
			Title:  fmt.Sprintf("%s: wireless channel energy (pJ)", n.Name),
			Labels: labels,
			Values: values,
		}
		files = append(files,
			file{"energy_heatmap", "_energy.csv", energy.WriteCSV},
			file{"energy_heatmap_svg", "_energy.svg", svg(energy)})
	}
	return writeFiles(prefix, man, files...)
}

// EmitLatencyBreakdown writes the latency-attribution artifacts with
// the given path prefix and returns the files written:
//
//	<prefix>.csv    — per-phase cycle totals with the sum-identity total
//	    row (cmd/obscheck verifies the identity);
//	<prefix>.ndjson — the same breakdown as one JSON object per phase;
//	<prefix>.svg    — a stacked-bar figure of the phase shares.
//
// It requires a probe with span decomposition enabled (Options.Spans).
func EmitLatencyBreakdown(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	sp := n.Probe.Spans()
	if sp == nil {
		return nil, fmt.Errorf("obs: latency breakdown requested but span decomposition is not enabled")
	}
	labels := make([]string, probe.NumSpanPhases)
	values := make([]float64, probe.NumSpanPhases)
	for ph := probe.SpanPhase(0); ph < probe.NumSpanPhases; ph++ {
		labels[ph] = ph.String()
		values[ph] = float64(sp.PhaseCycles(ph))
	}
	bar := &plot.StackedBar{
		Title:  fmt.Sprintf("%s: latency breakdown (%d packets, %d cy)", n.Name, sp.Packets(), sp.LatencyCycles()),
		Labels: labels,
		Values: values,
	}
	return writeFiles(prefix, man,
		file{"latency_breakdown", ".csv", sp.WriteCSV},
		file{"latency_breakdown_ndjson", ".ndjson", sp.WriteNDJSON},
		file{"latency_breakdown_svg", ".svg", svg(bar)})
}

// EmitFairness writes the token-fairness artifacts with the given path
// prefix and returns the files written:
//
//	<prefix>_tiles.csv   — per-tile token acquisitions, wait totals and
//	    max single waits per medium kind;
//	<prefix>_jain.csv    — Jain's fairness index per shared channel over
//	    its active tiles (cmd/obscheck enforces the (0,1] bound);
//	<prefix>_heatmap.svg — per-tile total token-wait heatmap.
//
// It requires an installed flight recorder (the stall tracker is fed the
// wait the span tracker charges to token_wait, so these artifacts
// reconcile with the latency breakdown).
func EmitFairness(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	if n.FlightRec == nil || n.FlightRec.Stall == nil {
		return nil, fmt.Errorf("obs: token-fairness artifacts requested but no flight recorder is installed")
	}
	st := n.FlightRec.Stall
	hm := &plot.Heatmap{
		Title:  fmt.Sprintf("%s: per-tile token wait (cy)", n.Name),
		Labels: st.TileLabels(),
		Values: st.TileWaitValues(),
	}
	return writeFiles(prefix, man,
		file{"token_fairness_tiles", "_tiles.csv", st.WriteTileCSV},
		file{"token_fairness_jain", "_jain.csv", st.WriteJainCSV},
		file{"token_fairness_heatmap", "_heatmap.svg", svg(hm)})
}

// EmitDump writes the end-of-run state dump with the given path prefix
// (<prefix>.ndjson plus the human-readable <prefix>.txt) and returns
// the files written. It requires an installed flight recorder.
func EmitDump(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	if n.FlightRec == nil {
		return nil, fmt.Errorf("obs: state dump requested but no flight recorder is installed")
	}
	snap := n.Snapshot("exit")
	return writeFiles(prefix, man,
		file{"state_dump", ".ndjson", snap.WriteNDJSON},
		file{"state_dump_text", ".txt", snap.WriteText})
}
