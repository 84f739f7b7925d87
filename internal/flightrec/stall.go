package flightrec

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ownsim/internal/stats"
)

// Medium kind indices for the per-tile aggregates: MWSR photonic
// waveguide tokens and SWMR/P2P wireless channel tokens are tracked
// separately because the paper's fairness concerns differ per medium.
const (
	KindPhotonic = 0
	KindWireless = 1
	NumKinds     = 2
)

var kindNames = [NumKinds]string{"photonic", "wireless"}

// chanWait is one channel's per-tile token-wait accumulation.
type chanWait struct {
	label string
	kind  int
	// count and sum are indexed by tile (sized at AddChannel from the
	// tracker's tile count).
	count []uint64
	sum   []uint64
}

// StallTracker aggregates token-acquisition waits per source tile, per
// medium kind and per channel. It is fed from the channel-transmit hook
// with exactly the cycles the span tracker charges to token_wait, so
// TotalWaitCy reconciles with probe.SpanTracker.PhaseCycles(
// probe.SpanTokenWait) cycle for cycle. All aggregates are
// index-ordered slices (the package is inside internal/lint's deterministic
// scope), and a nil tracker records nothing.
type StallTracker struct {
	tiles int
	// Per-kind, tile-indexed aggregates.
	count [NumKinds][]uint64
	sum   [NumKinds][]uint64
	max   [NumKinds][]uint64
	chans []*chanWait
}

// NewStallTracker creates a tracker for the given tile count.
func NewStallTracker(tiles int) *StallTracker {
	if tiles < 1 {
		tiles = 1
	}
	st := &StallTracker{tiles: tiles}
	for k := 0; k < NumKinds; k++ {
		st.count[k] = make([]uint64, tiles)
		st.sum[k] = make([]uint64, tiles)
		st.max[k] = make([]uint64, tiles)
	}
	return st
}

// KindIndex maps a channel Kind label to its aggregate index; every
// non-wireless shared medium in the simulator is a photonic waveguide.
func KindIndex(kind string) int {
	if kind == "wireless" {
		return KindWireless
	}
	return KindPhotonic
}

// AddChannel registers one shared channel (in network channel order)
// and returns its index for Observe.
func (st *StallTracker) AddChannel(label, kind string) int {
	cw := &chanWait{
		label: label,
		kind:  KindIndex(kind),
		count: make([]uint64, st.tiles),
		sum:   make([]uint64, st.tiles),
	}
	st.chans = append(st.chans, cw)
	return len(st.chans) - 1
}

// Observe records one token acquisition: the source tile waited waitCy
// cycles for channel ch. Out-of-range indices are ignored (defensive —
// the installer derives both from the topology).
func (st *StallTracker) Observe(ch, tile int, waitCy uint64) {
	if st == nil || tile < 0 || tile >= st.tiles || ch < 0 || ch >= len(st.chans) {
		return
	}
	cw := st.chans[ch]
	cw.count[tile]++
	cw.sum[tile] += waitCy
	k := cw.kind
	st.count[k][tile]++
	st.sum[k][tile] += waitCy
	if waitCy > st.max[k][tile] {
		st.max[k][tile] = waitCy
	}
}

// Tiles returns the tile count the tracker was sized for.
func (st *StallTracker) Tiles() int {
	if st == nil {
		return 0
	}
	return st.tiles
}

// KindTotals sums acquisitions, wait cycles and the per-tile max over
// all tiles for one medium kind.
func (st *StallTracker) KindTotals(k int) (count, sum, max uint64) {
	if st == nil || k < 0 || k >= NumKinds {
		return 0, 0, 0
	}
	for t := 0; t < st.tiles; t++ {
		count += st.count[k][t]
		sum += st.sum[k][t]
		if st.max[k][t] > max {
			max = st.max[k][t]
		}
	}
	return count, sum, max
}

// TotalWaitCy sums every recorded wait across kinds and tiles; it
// reconciles exactly with the span tracker's token_wait phase total.
func (st *StallTracker) TotalWaitCy() uint64 {
	var total uint64
	for k := 0; k < NumKinds; k++ {
		_, sum, _ := st.KindTotals(k)
		total += sum
	}
	return total
}

// ChannelJain computes Jain's fairness index over one channel's
// participating tiles, where each active tile's allocation is its mean
// token wait per acquisition. Channels with no acquisitions (or where
// nobody ever waited) are perfectly fair by the JainIndex convention.
// It also returns the number of active tiles and the channel's total
// acquisitions and wait cycles.
func (st *StallTracker) ChannelJain(ch int) (jain float64, active int, acqs, waitCy uint64) {
	if st == nil || ch < 0 || ch >= len(st.chans) {
		return 1, 0, 0, 0
	}
	cw := st.chans[ch]
	xs := make([]float64, 0, st.tiles)
	for t := 0; t < st.tiles; t++ {
		if cw.count[t] == 0 {
			continue
		}
		active++
		acqs += cw.count[t]
		waitCy += cw.sum[t]
		xs = append(xs, float64(cw.sum[t])/float64(cw.count[t]))
	}
	return stats.JainIndex(xs), active, acqs, waitCy
}

// TileLabels returns one display label per tile ("t0", "t1", ...),
// index-aligned with TileWaitValues, for heatmap artifacts.
func (st *StallTracker) TileLabels() []string {
	labels := make([]string, st.Tiles())
	for t := range labels {
		labels[t] = fmt.Sprintf("t%d", t)
	}
	return labels
}

// TileWaitValues returns each tile's total token-wait cycles summed
// over both medium kinds, for heatmap artifacts.
func (st *StallTracker) TileWaitValues() []float64 {
	vals := make([]float64, st.Tiles())
	if st == nil {
		return vals
	}
	for t := 0; t < st.tiles; t++ {
		vals[t] = float64(st.sum[KindPhotonic][t] + st.sum[KindWireless][t])
	}
	return vals
}

// FairnessTileCSVHeader is the per-tile token-wait CSV header;
// TestStallTrackerCSVs pins it.
var FairnessTileCSVHeader = []string{
	"tile",
	"photonic_acqs", "photonic_wait_cy", "photonic_max_cy",
	"wireless_acqs", "wireless_wait_cy", "wireless_max_cy",
	"total_wait_cy",
}

// WriteTileCSV writes one row per tile with per-kind acquisition
// counts, wait totals and max single waits, in one Write.
func (st *StallTracker) WriteTileCSV(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(strings.Join(FairnessTileCSVHeader, ",") + "\n")
	for t := 0; t < st.Tiles(); t++ {
		total := st.sum[KindPhotonic][t] + st.sum[KindWireless][t]
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d\n", t,
			st.count[KindPhotonic][t], st.sum[KindPhotonic][t], st.max[KindPhotonic][t],
			st.count[KindWireless][t], st.sum[KindWireless][t], st.max[KindWireless][t],
			total)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// FairnessJainCSVHeader is the per-channel Jain-index CSV header;
// obscheck.TestRecordInvariants recognizes the artifact by it and enforces
// the (0,1] bound on the jain_index column.
var FairnessJainCSVHeader = []string{
	"channel", "kind", "active_tiles", "acquisitions", "wait_cy", "jain_index",
}

// WriteJainCSV writes one row per registered channel (network channel
// order) with its fairness index over active tiles, in one Write.
func (st *StallTracker) WriteJainCSV(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(strings.Join(FairnessJainCSVHeader, ",") + "\n")
	if st != nil {
		for i, cw := range st.chans {
			jain, active, acqs, waitCy := st.ChannelJain(i)
			fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%s\n",
				cw.label, kindNames[cw.kind], active, acqs, waitCy,
				strconv.FormatFloat(jain, 'f', -1, 64))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
