package power

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/stats"
)

// chargedMeter builds a meter with energy in every category and three
// wireless channels across two classes plus one unlabelled channel.
func chargedMeter() *Meter {
	m := NewMeter(nil)
	m.RegisterRouter(5, 2)
	m.RegisterInputPort(2)
	for i := 0; i < 3; i++ {
		m.BufWrite()
	}
	m.ReadRouter(5, grants(3, 1))
	wire := uint64(1)
	m.ReadLink(&wire, 2.5)
	m.ReadLink(flits(1), 0)
	m.ReadWireless(0, "C2C", 1.0, 0, flits(2))
	m.ReadWireless(1, "E2E", 0.5, 1, flits(1))
	m.ReadWireless(2, "", 0.15, 0, flits(1)) // labelled by nobody -> "unclassified"
	return m
}

// wirelessTxRows returns the wireless_tx rows' classes and their summed
// energy.
func wirelessTxRows(rows []EnergyRow) (classes []string, pj Picojoules) {
	for _, r := range rows {
		if r.Component == "wireless_tx" {
			classes = append(classes, r.Class)
			pj += r.EnergyPJ
		}
	}
	return classes, pj
}

// TestEnergyRowsSumToBreakdown is the attribution's core invariant: the
// rows' average powers must sum to the Breakdown total the Meter reports,
// and the wireless_tx rows and the wireless transmit total are sums of the
// same per-channel products.
func TestEnergyRowsSumToBreakdown(t *testing.T) {
	m := chargedMeter()
	const cycles = 1000
	rows := m.EnergyRows(cycles)

	var totalMW Milliwatts
	for _, r := range rows {
		totalMW += r.AvgPowerMW
	}
	want := m.Report(cycles).TotalMW()
	if !stats.ApproxEqual(float64(totalMW), float64(want), 1e-12*float64(want)) {
		t.Fatalf("rows sum to %.12f mW, Breakdown total is %.12f mW", totalMW, want)
	}
	var perChannel Picojoules
	m.EachWirelessChannel(func(_ int, _ string, pj Picojoules) { perChannel += pj })
	if perChannel != m.Energy().WirelessTx {
		t.Fatalf("channels sum to %v pJ, wireless total is %v pJ", perChannel, m.Energy().WirelessTx)
	}
	if _, tx := wirelessTxRows(rows); !stats.ApproxEqual(float64(tx), float64(perChannel), 1e-12*float64(perChannel)) {
		t.Fatalf("wireless_tx rows sum to %v pJ, the channels to %v pJ", tx, perChannel)
	}

	var shares float64
	for _, r := range rows {
		shares += r.Share
	}
	if !stats.ApproxEqual(shares, 1, 1e-9) {
		t.Fatalf("shares sum to %f, want 1", shares)
	}
}

// TestPricingIsAPureRead: a report is a function of the counts and the
// constants, so asking twice gives the same answer bit for bit, and the
// answer after the counts moved does not depend on having asked before.
func TestPricingIsAPureRead(t *testing.T) {
	asked, fresh := chargedMeter(), chargedMeter()
	if a, b := asked.Report(1000), asked.Report(1000); a != b {
		t.Fatalf("two consecutive reports differ:\n%+v\n%+v", a, b)
	}
	asked.EnergyRows(1000)
	for _, m := range []*Meter{asked, fresh} {
		m.BufWrite()
		*m.links[0].flits += 41
	}
	if a, b := asked.Report(2000), fresh.Report(2000); a != b {
		t.Fatalf("a report mid-run changed the final one:\n%+v\n%+v", a, b)
	}
}

// TestWirelessClassAttribution checks the per-class split: labelled
// channels fall under their class, unlabelled ones under "unclassified",
// the class set is sorted and complete at build time, and an
// "unattributed" row appears exactly when a channel was registered with a
// negative id — decided by registration, not by comparing two floats.
func TestWirelessClassAttribution(t *testing.T) {
	m := NewMeter(nil)
	m.ReadWireless(0, "C2C", 1.0, 0, flits(1))
	m.ReadWireless(1, "E2E", 1.0, 0, flits(0))
	m.ReadWireless(2, "SR", 1.0, 0, flits(2))

	want := []string{"C2C", "E2E", "SR"}
	if got := m.WirelessClasses(); !slices.Equal(got, want) {
		t.Fatalf("classes = %v, want %v (sorted)", got, want)
	}
	if c2c, sr := m.WirelessClassPJ("C2C"), m.WirelessClassPJ("SR"); sr != 2*c2c || c2c == 0 {
		t.Fatalf("SR transmitted twice as much as C2C but C2C=%f SR=%f", c2c, sr)
	}
	if e2e := m.WirelessClassPJ("E2E"); e2e != 0 {
		t.Fatalf("idle E2E class priced at %f pJ", e2e)
	}
	// Ten million flits at a price with no short binary expansion: the
	// accumulator engine drifted here and printed a phantom residual row.
	m.ReadWireless(3, "", 0.7, 0, flits(10_000_000))
	if got, _ := wirelessTxRows(m.EnergyRows(100)); !slices.Equal(got, []string{"C2C", "E2E", "SR", "unclassified"}) {
		t.Fatalf("wireless_tx rows %v: want the three classes and unclassified, nothing unattributed", got)
	}

	m.ReadWireless(-1, "SR", 1.0, 0, flits(1))
	if got, _ := wirelessTxRows(m.EnergyRows(100)); !slices.Contains(got, "unattributed") {
		t.Fatalf("wireless_tx rows %v: a channel registered without an id produced no unattributed row", got)
	}
}

// TestWriteEnergyCSV checks the artifact shape: the pinned header, one
// total row last, and byte-identical output across identical meters.
func TestWriteEnergyCSV(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := chargedMeter().WriteEnergyCSV(&buf, 1000); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("energy CSV differs across identical meters")
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if got, want := lines[0], strings.Join(EnergyCSVHeader, ","); got != want {
		t.Fatalf("header = %q, want %q", got, want)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "total,") {
		t.Fatalf("last row %q is not the total", lines[len(lines)-1])
	}
	for _, class := range []string{"C2C", "E2E", "unclassified"} {
		if !strings.Contains(string(a), "wireless_tx,"+class+",") {
			t.Fatalf("class %s missing from CSV:\n%s", class, a)
		}
	}
}

func TestEnergyRowsZeroCyclesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cycles")
		}
	}()
	NewMeter(nil).EnergyRows(0)
}
