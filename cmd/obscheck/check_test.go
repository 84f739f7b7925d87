// Package obscheck holds the format checks of a run record, as tests
// only: every file `ownsim -out` or `sweep -out` writes promises an
// invariant, and the checkers here state each one. A CSV is a
// rectangular table with at least one data row, and the energy,
// latency-breakdown and Jain CSVs — recognized by their headers — add
// their sum or bound; JSON parses, the state dump decodes into
// flightrec.Snapshot with its cycle and reason, its text view lists the
// writers it records as waiting, and a manifest's run summary orders its
// latencies (p50 <= p95 <= p99 <= max). Across files, the heatmap and
// fairness tables sum to the gauges metrics.csv sampled at the run's
// last cycle (checkAgrees).
// TestRecordInvariants applies them to a real record,
// TestRecordCorruptionsFail proves each one bites on real emitter bytes,
// and the TestCheck* tests pin each checker on its own.
package obscheck

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
)

// checkFile validates one record file by its extension.
func checkFile(name string, b []byte) error {
	if len(b) == 0 {
		return errors.New("empty file")
	}
	var err error
	switch filepath.Ext(name) {
	case ".csv":
		_, err = checkCSV(b)
	case ".json":
		switch {
		case !json.Valid(b):
			err = errors.New("invalid JSON")
		case name == "dump.json":
			err = checkDump(b)
		case name == "manifest.json":
			err = checkManifest(b)
		}
	case ".dot", ".txt":
		// Text for people and Graphviz; the digests pin their bytes.
	default:
		err = fmt.Errorf("unknown extension %q", filepath.Ext(name))
	}
	return err
}

// checkCSV validates a CSV and returns its number of data rows.
func checkCSV(b []byte) (int, error) {
	// FieldsPerRecord defaults to the first record's width, enforcing a
	// rectangular table.
	recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return 0, fmt.Errorf("invalid CSV: %v", err)
	}
	if len(recs) < 2 {
		return 0, fmt.Errorf("CSV has no data rows (only %d records)", len(recs))
	}
	for _, a := range []struct {
		header []string
		check  func([][]string) error
	}{
		{power.EnergyCSVHeader, checkEnergyCSV},
		{probe.SpanCSVHeader, checkBreakdownCSV},
		{obs.FairnessJainCSVHeader, checkJainCSV},
	} {
		if slices.Equal(recs[0], a.header) {
			return len(recs) - 1, a.check(recs)
		}
	}
	return len(recs) - 1, nil
}

// totalLast sums column col over the rows above the final total row,
// which must be last, and returns that sum and the total row's value.
func totalLast[T float64 | uint64](recs [][]string, col int, parse func(string) (T, error)) (rows, total T, err error) {
	for i, rec := range recs[1:] {
		v, perr := parse(rec[col])
		if perr != nil {
			return 0, 0, fmt.Errorf("row %d: bad %s %q", i+1, recs[0][col], rec[col])
		}
		switch {
		case rec[0] != "total":
			rows += v
		case i != len(recs)-2:
			return 0, 0, errors.New("the total row is not last")
		default:
			total = v
		}
	}
	if last := recs[len(recs)-1][0]; last != "total" {
		return 0, 0, fmt.Errorf("last row is %q, want the total row", last)
	}
	return rows, total, nil
}

// checkEnergyCSV enforces the attribution partition: the component rows'
// energy_pj and avg_power_mw columns sum, within float tolerance, to the
// final total row.
func checkEnergyCSV(recs [][]string) error {
	for _, col := range []int{2, 3} {
		rows, total, err := totalLast(recs, col, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		if err != nil {
			return fmt.Errorf("energy CSV: %v", err)
		}
		if !stats.ApproxEqual(rows, total, 1e-6*math.Max(1, math.Abs(total))) {
			return fmt.Errorf("energy CSV: %s rows sum to %g but the total row says %g", recs[0][col], rows, total)
		}
	}
	return nil
}

// checkBreakdownCSV enforces the span sum identity: the phase rows'
// cycles sum to the final total row, exact integer equality.
func checkBreakdownCSV(recs [][]string) error {
	rows, total, err := totalLast(recs, 2, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	if err != nil {
		return fmt.Errorf("breakdown CSV: %v", err)
	}
	if rows != total {
		return fmt.Errorf("breakdown CSV: phase cycles sum to %d but the total row says %d", rows, total)
	}
	return nil
}

// checkJainCSV enforces the Jain bound on every channel row: the index
// (Σx)²/(n·Σx²) lies in (0, 1] for any allocation (an empty channel
// reports 1), so a value outside it is an emitter bug.
func checkJainCSV(recs [][]string) error {
	for i, rec := range recs[1:] {
		j, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return fmt.Errorf("jain CSV row %d: bad jain_index %q", i+1, rec[5])
		}
		if math.IsNaN(j) || j <= 0 || j > 1 {
			return fmt.Errorf("jain CSV row %d (%s): jain_index %g outside (0,1]", i+1, rec[0], j)
		}
	}
	return nil
}

// checkDump validates a state dump: one JSON document that decodes into
// flightrec.Snapshot with no member the struct does not name, and that
// carries its cycle and a non-empty reason.
func checkDump(b []byte) error {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(b, &members); err != nil {
		return fmt.Errorf("dump is not a JSON object: %v", err)
	}
	if _, ok := members["cycle"]; !ok {
		return errors.New("dump lacks a cycle")
	}
	var snap flightrec.Snapshot
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("dump does not decode into flightrec.Snapshot: %v", err)
	}
	if snap.Reason == "" {
		return errors.New("dump lacks a reason")
	}
	return nil
}

// starvedLine reads a "starved writers" line of dump.txt: the channel's
// kind and name, the writer's index and router, and the wait in cycles.
var starvedLine = regexp.MustCompile(`^  (\S+) (\S+) writer (\d+) \(router (-?\d+)\) waiting (\d+) cy;`)

// checkStarved validates dump.txt against dump.json, the view against the
// record: "starved writers: N" counts the writers dump.json lists as
// waiting, and the N lines under it name, in channel and writer order,
// the same channel, writer, router and wait (the dump cycle less the
// cycle the wait opened).
func checkStarved(dumpJSON, dumpText []byte) error {
	var snap flightrec.Snapshot
	if err := json.Unmarshal(dumpJSON, &snap); err != nil {
		return fmt.Errorf("dump.json: %v", err)
	}
	var want []string
	for _, c := range snap.Channels {
		for _, wr := range c.Writers {
			if wr.Waiting {
				want = append(want, fmt.Sprintf("%s %s writer %d router %d wait %d", c.Kind, c.Name, wr.Index, wr.ID, snap.Cycle-wr.WaitingSinceCy))
			}
		}
	}
	lines := strings.Split(string(dumpText), "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "starved writers: ") })
	if at < 0 {
		return errors.New("dump.txt lacks the starved writers count")
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(lines[at], "starved writers: ")); err != nil || n != len(want) {
		return fmt.Errorf("dump.txt %q, dump.json lists %d waiting writers", lines[at], len(want))
	}
	for i, w := range want {
		m := starvedLine.FindStringSubmatch(lines[at+1+i])
		if m == nil {
			return fmt.Errorf("dump.txt starved writer line %d %q is not a starved writer", i+1, lines[at+1+i])
		}
		if got := fmt.Sprintf("%s %s writer %s router %s wait %s", m[1], m[2], m[3], m[4], m[5]); got != w {
			return fmt.Errorf("dump.txt starved writer line %d names %s, dump.json %s", i+1, got, w)
		}
	}
	return nil
}

// checkManifest validates a manifest: its run summary, when it has one,
// orders the latency percentiles under the maximum.
func checkManifest(b []byte) error {
	var man probe.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return fmt.Errorf("manifest does not decode into probe.Manifest: %v", err)
	}
	if s := man.Summary; s != nil && !(s.P50Latency <= s.P95Latency && s.P95Latency <= s.P99Latency && s.P99Latency <= s.MaxLatency) {
		return fmt.Errorf("summary latencies out of order: p50 %d, p95 %d, p99 %d, max %d", s.P50Latency, s.P95Latency, s.P99Latency, s.MaxLatency)
	}
	return nil
}

// checkAgrees holds a record's files to each other: the tables that
// attribute a total per router, channel or tile sum to the gauge that
// metrics.csv sampled at the run's last cycle (Probe.Flush writes that
// final row), and the fairness ledger to the latency breakdown:
//
//   - heat_congestion.csv's values sum to net.credit_stall + net.busy_stall;
//   - fair_tiles.csv's total_wait_cy sums to token.photonic.wait_cy +
//     token.wireless.wait_cy, which is breakdown.csv's token_wait cycles;
//   - heat_energy.csv's values, added in file order, are
//     energy.wireless_tx_pj bit for bit (a record without wireless
//     channels has no heat_energy.csv and charges no wireless energy).
//
// files maps each base name to its bytes.
func checkAgrees(files map[string][]byte) error {
	column := func(name, header string) ([]float64, error) {
		recs, err := csv.NewReader(bytes.NewReader(files[name])).ReadAll()
		if err != nil || len(recs) == 0 {
			return nil, err
		}
		col := slices.Index(recs[0], header)
		if col < 0 {
			return nil, fmt.Errorf("%s has no %s column", name, header)
		}
		vs := make([]float64, len(recs)-1)
		for i, rec := range recs[1:] {
			if vs[i], err = strconv.ParseFloat(rec[col], 64); err != nil {
				return nil, fmt.Errorf("%s row %d: bad %s %q", name, i+1, header, rec[col])
			}
		}
		return vs, nil
	}
	sum := func(name, header string) (float64, error) {
		vs, err := column(name, header)
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s, err
	}
	final := func(headers ...string) (float64, error) {
		s := 0.0
		for _, h := range headers {
			vs, err := column("metrics.csv", h)
			if err != nil || len(vs) == 0 {
				return 0, fmt.Errorf("metrics.csv has no final %s (%v)", h, err)
			}
			s += vs[len(vs)-1]
		}
		return s, nil
	}
	for _, id := range []struct {
		what, file, header string
		gauges             []string
	}{
		{"congestion", "heat_congestion.csv", "value", []string{"net.credit_stall", "net.busy_stall"}},
		{"token wait", "fair_tiles.csv", "total_wait_cy", []string{"token.photonic.wait_cy", "token.wireless.wait_cy"}},
		{"wireless energy", "heat_energy.csv", "value", []string{"energy.wireless_tx_pj"}},
	} {
		got, err := sum(id.file, id.header)
		if err != nil {
			return err
		}
		want, err := final(id.gauges...)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s: %s %s sums to %v, metrics.csv's final %s to %v", id.what, id.file, id.header, got, strings.Join(id.gauges, " + "), want)
		}
	}
	gauges, err := final("token.photonic.wait_cy", "token.wireless.wait_cy")
	if err != nil {
		return err
	}
	phases, err := column("breakdown.csv", "cycles")
	if err != nil || len(phases) != int(probe.NumSpanPhases)+1 {
		return fmt.Errorf("breakdown.csv has no row per phase (%v)", err)
	}
	if tokenWait := phases[probe.SpanTokenWait]; gauges != tokenWait {
		return fmt.Errorf("token wait: the token.* gauges sum to %v, breakdown.csv's token_wait to %v", gauges, tokenWait)
	}
	return nil
}
