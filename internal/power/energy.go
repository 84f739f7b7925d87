package power

import (
	"encoding/csv"
	"io"
	"slices"
	"strconv"
)

// Energy attribution: this file breaks one pricing read (Meter.Energy)
// down into a deterministic row set — per component and, for the wireless
// substrate, per link-distance class (C2C/E2E/SR) — that sums to the
// Breakdown the Meter reports. The rows back the energy.csv artifact, and
// obscheck.TestRecordInvariants re-verifies the sum invariant on the
// emitted file.

// WirelessClasses returns the sorted set of class labels of the
// registered wireless channels (ReadWireless), so the set is complete at
// network-build time and stable for the whole run.
func (m *Meter) WirelessClasses() []string {
	if m == nil {
		return nil
	}
	var classes []string
	for _, r := range m.radios {
		if !slices.Contains(classes, r.class) {
			classes = append(classes, r.class)
		}
	}
	slices.Sort(classes)
	return classes
}

// WirelessClassPJ sums the transmit energy of every wireless channel
// registered under the given class.
func (m *Meter) WirelessClassPJ(class string) Picojoules {
	var sum Picojoules
	m.EachWirelessChannel(func(_ int, c string, pj Picojoules) {
		if c == class {
			sum += pj
		}
	})
	return sum
}

// EachWirelessChannel calls f with the id, class and transmit energy so
// far of every registered wireless channel, in registration order.
func (m *Meter) EachWirelessChannel(f func(id int, class string, pj Picojoules)) {
	if m == nil {
		return
	}
	for i := range m.radios {
		r := &m.radios[i]
		f(r.id, r.class, r.txPJ(float64(m.P.FlitBits)))
	}
}

// EnergyRow is one line of the per-component energy attribution.
type EnergyRow struct {
	// Component names the energy sink ("buffer_write", "crossbar",
	// "wireless_tx", "static", ...), mirroring the Breakdown stacking.
	Component string
	// Class is the wireless link-distance class for wireless_tx rows
	// ("C2C", "E2E", "SR", ...) and "-" for class-less components.
	Class string
	// EnergyPJ is the attributed energy over the run. For the static
	// row it is leakage+tuning power integrated over the run.
	EnergyPJ Picojoules
	// AvgPowerMW is EnergyPJ spread over the simulated time.
	AvgPowerMW Milliwatts
	// Share is AvgPowerMW as a fraction of the total.
	Share float64
}

// EnergyRows returns the full attribution over the given simulated
// cycles, in a fixed component order (router pipeline, static, links,
// photonic, wireless per class, wireless RX). The rows' AvgPowerMW sum
// to Report(cycles).TotalMW up to float summation order, and the
// wireless_tx rows partition the channels by class, so they and the
// wireless total are sums of the same per-channel products (a channel
// registered with a negative id is the "unattributed" class). It panics
// if cycles is zero.
func (m *Meter) EnergyRows(cycles uint64) []EnergyRow {
	if cycles == 0 {
		panic("power: energy rows over zero cycles")
	}
	ns := Nanoseconds(float64(cycles) * m.P.CycleNS())
	e := m.Energy()
	rows := []EnergyRow{
		{Component: "buffer_write", Class: "-", EnergyPJ: e.BufWrite},
		{Component: "buffer_read", Class: "-", EnergyPJ: e.BufRead},
		{Component: "crossbar", Class: "-", EnergyPJ: e.Xbar},
		{Component: "arbiter", Class: "-", EnergyPJ: e.Arb},
		{Component: "static", Class: "-", EnergyPJ: m.leakMW.TimesNS(ns)},
		{Component: "elec_link", Class: "-", EnergyPJ: e.ElecLink},
		{Component: "photonic", Class: "-", EnergyPJ: e.Photonic},
	}
	for _, class := range m.WirelessClasses() {
		rows = append(rows, EnergyRow{Component: "wireless_tx", Class: class, EnergyPJ: m.WirelessClassPJ(class)})
	}
	rows = append(rows, EnergyRow{Component: "wireless_rx_discard", Class: "-", EnergyPJ: e.WirelessRx})

	var total Milliwatts
	for i := range rows {
		rows[i].AvgPowerMW = rows[i].EnergyPJ.OverNS(ns)
		total += rows[i].AvgPowerMW
	}
	if total > 0 {
		for i := range rows {
			rows[i].Share = float64(rows[i].AvgPowerMW / total)
		}
	}
	return rows
}

// formatEnergy renders a value with the repository's deterministic float
// convention (shortest round-trip decimal, no exponent).
func formatEnergy(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// EnergyCSVHeader is the column set of the energy.csv artifact;
// obscheck.TestRecordInvariants keys its sum-invariant rule on it.
var EnergyCSVHeader = []string{"component", "class", "energy_pj", "avg_power_mw", "share"}

// WriteEnergyCSV writes the attribution as the energy.csv artifact: one
// row per EnergyRow plus a final "total" row. Deterministic: fixed row
// order, shortest-decimal floats.
func (m *Meter) WriteEnergyCSV(w io.Writer, cycles uint64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(EnergyCSVHeader); err != nil {
		return err
	}
	var totPJ Picojoules
	var totMW Milliwatts
	for _, r := range m.EnergyRows(cycles) {
		totPJ += r.EnergyPJ
		totMW += r.AvgPowerMW
		rec := []string{r.Component, r.Class, formatEnergy(float64(r.EnergyPJ)), formatEnergy(float64(r.AvgPowerMW)), formatEnergy(r.Share)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"total", "-", formatEnergy(float64(totPJ)), formatEnergy(float64(totMW)), "1"}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
