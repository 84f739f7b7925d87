package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ownsim/internal/noc"
	"ownsim/internal/probe"
	"ownsim/internal/sbus"
)

// booking is one token wait: on channel ch, by a packet from core src.
type booking struct {
	ch, src int
	wait    uint64
}

// ledger returns a span tracker whose token ledger (one core per tile)
// has booked the given waits through ChannelTx.
func ledger(channels, tiles int, bookings ...booking) *probe.SpanTracker {
	sp := probe.New(probe.Options{Spans: true}).Spans()
	sp.SizeTokenLedger(channels, tiles, 1)
	for i, b := range bookings {
		p := &noc.Packet{ID: uint64(i + 1), Src: b.src, Measure: true, NumFlits: 1}
		sp.Enqueue(p, 0)
		sp.ChannelTx(b.wait, noc.MakeFlits(p)[0], probe.ChannelHop{Ledger: b.ch})
	}
	return sp
}

// lines renders one fairness CSV and splits it into lines.
func lines(t *testing.T, render func(*bytes.Buffer) error) []string {
	t.Helper()
	var b bytes.Buffer
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(b.String()), "\n")
}

// TestFairnessCSVs pins both fairness CSVs on a small ledger: a row per
// tile with its waits per medium, a row per channel with its Jain index.
// A channel of no wireless kind counts as photonic.
func TestFairnessCSVs(t *testing.T) {
	chans := []*sbus.Channel{{Name: "bus0", Kind: "photonic"}, {Name: "wl A", Kind: "wireless"}, {Name: "x"}}
	sp := ledger(3, 2, booking{0, 0, 4}, booking{0, 1, 4}, booking{1, 1, 6}, booking{2, 1, 9})

	tiles := lines(t, func(b *bytes.Buffer) error { return writeTileCSV(b, tileWaits(chans, sp)) })
	want := []string{strings.Join(FairnessTileCSVHeader, ","), "0,1,4,4,0,0,0,4", "1,2,13,9,1,6,6,19"}
	if strings.Join(tiles, "\n") != strings.Join(want, "\n") {
		t.Errorf("fair_tiles.csv =\n%s\nwant\n%s", strings.Join(tiles, "\n"), strings.Join(want, "\n"))
	}

	jain := lines(t, func(b *bytes.Buffer) error { return WriteJainCSV(b, chans, sp) })
	want = []string{strings.Join(FairnessJainCSVHeader, ","),
		"photonic.bus0,photonic,2,2,8,1", "wireless.wl A,wireless,1,1,6,1", "x,photonic,1,1,9,1"}
	if strings.Join(jain, "\n") != strings.Join(want, "\n") {
		t.Errorf("fair_jain.csv =\n%s\nwant\n%s", strings.Join(jain, "\n"), strings.Join(want, "\n"))
	}
}

// TestChannelJainConventions: a channel nobody waited on is perfectly
// fair, equal mean waits give exactly 1, and one tile waiting far longer
// lowers the index but keeps it in (0, 1].
func TestChannelJainConventions(t *testing.T) {
	chans := []*sbus.Channel{{Name: "idle", Kind: "photonic"}, {Name: "even", Kind: "photonic"}, {Name: "skewed", Kind: "photonic"}}
	sp := ledger(3, 3,
		booking{1, 0, 10}, booking{1, 1, 10},
		booking{2, 0, 10}, booking{2, 1, 10}, booking{2, 2, 1000})
	rows := lines(t, func(b *bytes.Buffer) error { return WriteJainCSV(b, chans, sp) })[1:]
	jain := func(row string) (active string, j float64) {
		f := strings.Split(row, ",")
		j, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		return f[2], j
	}
	if active, j := jain(rows[0]); active != "0" || j != 1 {
		t.Errorf("idle channel: %s active tiles, jain %v, want 0 and 1", active, j)
	}
	if active, j := jain(rows[1]); active != "2" || j != 1 {
		t.Errorf("balanced channel: %s active tiles, jain %v, want 2 and 1", active, j)
	}
	if active, j := jain(rows[2]); active != "3" || !(j > 0 && j < 1) {
		t.Errorf("skewed channel: %s active tiles, jain %v, want 3 and a value in (0, 1)", active, j)
	}
}
