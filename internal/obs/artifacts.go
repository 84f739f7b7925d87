package obs

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/sbus"
	"ownsim/internal/stats"
)

// Artifact emission for the record -out writes. groups is the ordered
// table of what a run leaves in the record directory; every group renders
// its files through writeFiles, which builds each file in memory first so
// the manifest digests exactly the bytes written. Content depends only on
// simulation state, never on where the record is written.

// groups lists the artifact groups in emission order — the order of the
// status lines Session.Emit reports and of the manifest's artifact
// entries. Each emitter writes its files under fixed names into a
// directory.
var groups = []struct {
	name string
	emit func(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error)
}{
	{"metrics", EmitMetrics},
	{"trace", EmitTrace},
	{"energy", EmitEnergyCSV},
	{"heatmaps", EmitHeatmaps},
	{"breakdown", EmitLatencyBreakdown},
	{"fairness", EmitFairness},
	{"dump", EmitDump},
}

// file is one artifact of a group: its manifest name, its file name in
// the record directory and the renderer of its content.
type file struct {
	name, base string
	render     func(w io.Writer) error
}

// writeFiles renders each file, writes it into dir and digests it into
// the manifest, under its base name, when one is being built. It returns
// the paths written so far, so a failure still names what reached the
// disk.
func writeFiles(dir string, man *probe.Manifest, files ...file) ([]string, error) {
	var written []string
	var buf bytes.Buffer
	for _, f := range files {
		buf.Reset()
		if err := f.render(&buf); err != nil {
			return written, err
		}
		dst := filepath.Join(dir, f.base)
		if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
			return written, err
		}
		if man != nil {
			man.AddArtifact(f.name, f.base, buf.Bytes())
		}
		written = append(written, dst)
	}
	return written, nil
}

// WriteManifest writes the manifest into dir as manifest.json.
func WriteManifest(man *probe.Manifest, dir string) error {
	_, err := writeFiles(dir, nil, file{base: "manifest.json", render: man.WriteJSON})
	return err
}

// EmitMetrics writes the sampled metric time-series to dir/metrics.csv.
// It requires a probe with sampling enabled (Options.MetricsEvery).
func EmitMetrics(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	s := n.Probe.Sampler()
	if s == nil {
		return nil, fmt.Errorf("obs: metrics requested but sampling is not enabled")
	}
	return writeFiles(dir, man, file{"metrics", "metrics.csv", s.WriteCSV})
}

// EmitTrace writes the per-packet lifecycle trace to dir/trace.json in
// Chrome trace-event JSON. It requires a probe with tracing enabled
// (Options.TraceEvery).
func EmitTrace(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	t := n.Probe.Tracer()
	if t == nil {
		return nil, fmt.Errorf("obs: trace requested but tracing is not enabled")
	}
	return writeFiles(dir, man, file{"trace", "trace.json", t.WriteChrome})
}

// EmitEnergyCSV writes the network's per-component energy attribution
// (power.Meter.WriteEnergyCSV over the simulated cycles) to
// dir/energy.csv.
func EmitEnergyCSV(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	if n.Meter == nil {
		return nil, fmt.Errorf("obs: energy attribution requested but the network has no power meter")
	}
	return writeFiles(dir, man, file{"energy", "energy.csv", func(w io.Writer) error {
		return n.Meter.WriteEnergyCSV(w, n.Eng.Cycle())
	}})
}

// EmitHeatmaps writes the heatmap artifacts into dir and returns the
// files written:
//
//	heat_congestion.csv — per-router stall counts (Router.Counts, read
//	    whatever the probe registers);
//	heat_energy.csv     — per-wireless-channel transmit energy, labelled
//	    with the channel's link-distance class (skipped when the network
//	    has no wireless channels).
func EmitHeatmaps(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	files := []file{{"congestion_heatmap", "heat_congestion.csv", gridCSV(n.RouterLabels(), n.CongestionValues())}}
	var labels []string
	var values []float64
	n.Meter.EachWirelessChannel(func(id int, class string, pj power.Picojoules) {
		labels = append(labels, fmt.Sprintf("ch%d/%s", id, class))
		values = append(values, float64(pj))
	})
	if len(labels) > 0 {
		files = append(files, file{"energy_heatmap", "heat_energy.csv", gridCSV(labels, values)})
	}
	return writeFiles(dir, man, files...)
}

// gridCSV renders labelled values as a heatmap table: one
// index,row,col,label,value row per value, laid out row-major on a
// near-square grid of ceil(sqrt(len(values))) columns, each value the
// shortest decimal that round-trips.
func gridCSV(labels []string, values []float64) func(io.Writer) error {
	return func(w io.Writer) error {
		cols := max(1, int(math.Ceil(math.Sqrt(float64(len(values))))))
		rows := [][]string{{"index", "row", "col", "label", "value"}}
		for i, v := range values {
			rows = append(rows, []string{
				strconv.Itoa(i), strconv.Itoa(i / cols), strconv.Itoa(i % cols),
				labels[i], strconv.FormatFloat(v, 'f', -1, 64),
			})
		}
		return csv.NewWriter(w).WriteAll(rows)
	}
}

// EmitLatencyBreakdown writes the latency attribution to dir/breakdown.csv:
// per-phase cycle totals with the sum-identity total row
// (obscheck.TestRecordInvariants verifies the identity). It requires a
// probe with span decomposition enabled (Options.Spans).
func EmitLatencyBreakdown(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	sp := n.Probe.Spans()
	if sp == nil {
		return nil, fmt.Errorf("obs: latency breakdown requested but span decomposition is not enabled")
	}
	return writeFiles(dir, man, file{"latency_breakdown", "breakdown.csv", sp.WriteCSV})
}

// FairnessTileCSVHeader is the fair_tiles.csv header: per source tile,
// token waits booked on photonic and on wireless channels.
var FairnessTileCSVHeader = []string{
	"tile",
	"photonic_acqs", "photonic_wait_cy", "photonic_max_cy",
	"wireless_acqs", "wireless_wait_cy", "wireless_max_cy",
	"total_wait_cy",
}

// FairnessJainCSVHeader is the fair_jain.csv header;
// obscheck.TestRecordInvariants recognizes the artifact by it and enforces
// the (0,1] bound on the jain_index column.
var FairnessJainCSVHeader = []string{
	"channel", "kind", "active_tiles", "acquisitions", "wait_cy", "jain_index",
}

// EmitFairness writes the token-fairness artifacts into dir and returns
// the files written:
//
//	fair_tiles.csv   — per-tile token acquisitions, wait totals and max
//	    single waits per medium;
//	fair_jain.csv    — Jain's fairness index per shared channel over its
//	    active tiles (obscheck.TestRecordInvariants enforces the (0,1] bound).
//
// It requires a probe with span decomposition enabled (Options.Spans):
// every file renders the span tracker's token ledger, so the artifacts
// reconcile with the latency breakdown's token_wait.
func EmitFairness(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	sp := n.Probe.Spans()
	if sp == nil {
		return nil, fmt.Errorf("obs: token-fairness artifacts requested but span decomposition is not enabled")
	}
	tiles := tileWaits(n.Channels, sp)
	return writeFiles(dir, man,
		file{"token_fairness_tiles", "fair_tiles.csv", func(w io.Writer) error { return writeTileCSV(w, tiles) }},
		file{"token_fairness_jain", "fair_jain.csv", func(w io.Writer) error { return WriteJainCSV(w, n.Channels, sp) }})
}

// tileWaits folds the token ledger per source tile and medium: [t][0] is
// tile t's waits on photonic channels, [t][1] on wireless ones.
func tileWaits(chans []*sbus.Channel, sp *probe.SpanTracker) [][2]probe.TokenCell {
	tiles := make([][2]probe.TokenCell, sp.TokenTiles())
	for ci, ch := range chans {
		m := 0
		if fabric.TokenMedium(ch) == "wireless" {
			m = 1
		}
		for t := range tiles {
			tiles[t][m].Add(sp.Token(ci, t))
		}
	}
	return tiles
}

// writeTileCSV writes fair_tiles.csv: one row per tile with per-medium
// acquisition counts, wait totals and max single waits, in one Write.
func writeTileCSV(w io.Writer, tiles [][2]probe.TokenCell) error {
	var b bytes.Buffer
	b.WriteString(strings.Join(FairnessTileCSVHeader, ",") + "\n")
	for t, c := range tiles {
		ph, wl := c[0], c[1]
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d\n", t,
			ph.Acqs, ph.WaitCy, ph.MaxCy, wl.Acqs, wl.WaitCy, wl.MaxCy, ph.WaitCy+wl.WaitCy)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// WriteJainCSV writes fair_jain.csv: one row per shared channel, in
// network order, with Jain's index over the tiles that booked a wait on
// it, each tile's allocation being its mean wait per acquisition. A
// channel nobody waited on is perfectly fair by the stats.JainIndex
// convention. It reaches w in one Write.
func WriteJainCSV(w io.Writer, chans []*sbus.Channel, sp *probe.SpanTracker) error {
	var b bytes.Buffer
	b.WriteString(strings.Join(FairnessJainCSVHeader, ",") + "\n")
	xs := make([]float64, 0, sp.TokenTiles())
	for ci, ch := range chans {
		xs = xs[:0]
		for t := range sp.TokenTiles() {
			if c := sp.Token(ci, t); c.Acqs > 0 {
				xs = append(xs, float64(c.WaitCy)/float64(c.Acqs))
			}
		}
		row := sp.TokenRow(ci)
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%s\n", fabric.ChannelLabel(ch), fabric.TokenMedium(ch),
			len(xs), row.Acqs, row.WaitCy, strconv.FormatFloat(stats.JainIndex(xs), 'f', -1, 64))
	}
	_, err := w.Write(b.Bytes())
	return err
}

// EmitDump writes the end-of-run state dump into dir (dump.json plus
// the human-readable dump.txt) and returns the files written. It
// requires an installed flight recorder.
func EmitDump(n *fabric.Network, dir string, man *probe.Manifest) ([]string, error) {
	if n.FlightRec == nil {
		return nil, fmt.Errorf("obs: state dump requested but no flight recorder is installed")
	}
	snap := n.Snapshot("exit")
	return writeFiles(dir, man,
		file{"state_dump", "dump.json", snap.WriteJSON},
		file{"state_dump_text", "dump.txt", snap.WriteText})
}
