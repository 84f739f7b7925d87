package plot

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Heatmap is a labelled scalar field laid out on a grid — per-tile-router
// congestion, per-channel energy — rendered as a CSV table and as a
// deterministic SVG. Both renderings are pure functions of the struct
// (fixed iteration order, fixed number formatting), so emitted artifacts
// are byte-identical across runs and GOMAXPROCS settings.
type Heatmap struct {
	// Title is drawn above the grid.
	Title string
	// Cols fixes the grid width; 0 lays cells out near-square.
	Cols int
	// Labels names each cell (same length as Values).
	Labels []string
	// Values are the cell intensities.
	Values []float64
}

// cols returns the effective grid width.
func (h *Heatmap) cols() int {
	if h.Cols > 0 {
		return h.Cols
	}
	if len(h.Values) == 0 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(len(h.Values)))))
}

// formatHeat renders a value deterministically (shortest round-trip
// decimal without exponent, like the sampler's CSV).
func formatHeat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// WriteCSV writes one row per cell: its linear index, grid position,
// label and value.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	rows := [][]string{{"index", "row", "col", "label", "value"}}
	cols := h.cols()
	for i, v := range h.Values {
		label := ""
		if i < len(h.Labels) {
			label = h.Labels[i]
		}
		rows = append(rows, []string{
			strconv.Itoa(i), strconv.Itoa(i / cols), strconv.Itoa(i % cols),
			label, formatHeat(v),
		})
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// heatColor maps t in [0,1] onto a dark-blue -> yellow ramp, returned as
// a #rrggbb literal.
func heatColor(t float64) string {
	if math.IsNaN(t) {
		t = 0
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Two-segment ramp through teal keeps midrange cells distinguishable.
	var r, g, b float64
	if t < 0.5 {
		u := t * 2
		r, g, b = lerp(23, 32, u), lerp(42, 144, u), lerp(112, 140, u)
	} else {
		u := (t - 0.5) * 2
		r, g, b = lerp(32, 250, u), lerp(144, 204, u), lerp(140, 21, u)
	}
	round := func(v float64) int { return int(math.Round(v)) }
	return fmt.Sprintf("#%02x%02x%02x", round(r), round(g), round(b))
}

// lerp is a + (b-a)*u with the product rounded, so no target fuses it
// into a multiply-add and every architecture prints the same colors.
func lerp(a, b, u float64) float64 { return a + float64((b-a)*u) }

// SVG renders the grid as a standalone SVG document: one rect per cell
// colored by normalized intensity, a hover tooltip (<title>) carrying
// the label and exact value, and a min/max legend.
func (h *Heatmap) SVG() string {
	const (
		cell   = 26
		gap    = 2
		margin = 8
		header = 24
		footer = 20
	)
	cols := h.cols()
	rows := (len(h.Values) + cols - 1) / cols
	if rows == 0 {
		rows = 1
	}
	width := margin*2 + cols*(cell+gap) - gap
	if width < 220 {
		width = 220
	}
	height := header + margin*2 + rows*(cell+gap) - gap + footer

	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range h.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		min, max = math.Min(min, v), math.Max(max, v)
	}
	if min > max { // no finite values
		min, max = 0, 1
	}
	span := max - min
	if span <= 0 {
		span = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n",
		width, height, width, height)
	fmt.Fprintf(&b, "  <rect width=\"%d\" height=\"%d\" fill=\"#ffffff\"/>\n", width, height)
	fmt.Fprintf(&b, "  <text x=\"%d\" y=\"16\" font-family=\"monospace\" font-size=\"12\">%s</text>\n",
		margin, xmlEscape(h.Title))
	for i, v := range h.Values {
		x := margin + (i%cols)*(cell+gap)
		y := header + margin + (i/cols)*(cell+gap)
		t := 0.0
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			t = (v - min) / span
		}
		label := ""
		if i < len(h.Labels) {
			label = h.Labels[i]
		}
		fmt.Fprintf(&b, "  <rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"><title>%s = %s</title></rect>\n",
			x, y, cell, cell, heatColor(t), xmlEscape(label), formatHeat(v))
	}
	fmt.Fprintf(&b, "  <text x=\"%d\" y=\"%d\" font-family=\"monospace\" font-size=\"10\">min %s  max %s  (%d cells)</text>\n",
		margin, height-6, formatHeat(min), formatHeat(max), len(h.Values))
	b.WriteString("</svg>\n")
	return b.String()
}

// xmlEscape escapes the five XML special characters.
func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;", "'", "&apos;")
	return r.Replace(s)
}
