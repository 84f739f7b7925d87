// Command obscheck validates observability artifacts emitted by ownsim
// and sweep: .json files must parse as one JSON value, .ndjson files as
// one JSON object per line, .csv files as a rectangular table with a
// header row (energy attribution CSVs additionally must have component
// rows summing to their total row), .svg files as well-formed XML with
// an svg root, and .prom files as Prometheus text exposition. Every
// listed file is validated — a failure is reported and the remaining
// files still checked — and the exit status is non-zero when any of
// them was invalid or empty. `make smoke` runs it in CI so a formatting
// regression in the probe exporters cannot land silently.
//
// Latency-breakdown CSVs (recognized by the probe.SpanCSVHeader header)
// must satisfy the span sum identity exactly: the per-phase cycles
// column sums — integer equality, no tolerance — to the final total row.
//
// With -scrape it first fetches a live /metrics endpoint (retrying while
// the serving simulation starts up), validates the body as Prometheus
// text and optionally saves it with -o — this is how the smoke test
// exercises the live telemetry plane without needing curl. Repeatable
// -require flags name Prometheus series that must be present with a
// nonzero value; the scrape retries until every requirement is met, so
// cumulative counters that start at zero get time to move. -fetch
// retrieves one more URL raw (any non-empty 200 body, e.g. a pprof
// profile) and saves it to the -o path when -scrape is absent.
//
// Usage:
//
//	obscheck trace.json metrics.csv manifest.json events.ndjson
//	obscheck -scrape http://127.0.0.1:9090/metrics -o smoke.prom \
//	    -require ownsim_engine_compute_ticks -require ownsim_pool_gets
//	obscheck -fetch 'http://127.0.0.1:9090/debug/pprof/profile?seconds=1' -o cpu.pb.gz
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"ownsim/internal/flightrec"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/stats"
)

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("obscheck: ")
	scrape := flag.String("scrape", "", "fetch this URL (retrying while the target starts) and validate the body as Prometheus text")
	out := flag.String("o", "", "write the -scrape (or, without -scrape, the -fetch) body to this file")
	fetch := flag.String("fetch", "", "fetch this URL raw (retrying; any non-empty 200 body passes, e.g. a pprof profile)")
	var require stringList
	flag.Var(&require, "require", "with -scrape: require this Prometheus series to be present and nonzero (repeatable; retries until satisfied)")
	fetchTimeout := flag.Duration("fetch-timeout", 10*time.Second, "total retry budget for each -scrape/-fetch loop (also the per-request HTTP timeout)")
	flag.Parse()
	if *fetchTimeout <= 0 {
		log.Fatal("-fetch-timeout must be positive")
	}
	retryBudget = *fetchTimeout
	httpClient = &http.Client{Timeout: *fetchTimeout}
	if *scrape == "" && *fetch == "" && flag.NArg() == 0 {
		log.Fatal("usage: obscheck [-scrape URL [-require NAME]... [-o FILE]] [-fetch URL [-o FILE]] file...")
	}
	if *scrape == "" && len(require) > 0 {
		log.Fatal("-require needs -scrape")
	}
	if *scrape != "" {
		b, n, err := scrapeProm(*scrape, require)
		if err != nil {
			log.Fatalf("scrape %s: %v", *scrape, err)
		}
		if *out != "" {
			if err := os.WriteFile(*out, b, 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("ok %s (%d samples, %d required)\n", *scrape, n, len(require))
	}
	if *fetch != "" {
		b, err := fetchURL(*fetch)
		if err != nil {
			log.Fatalf("fetch %s: %v", *fetch, err)
		}
		if *scrape == "" && *out != "" {
			if err := os.WriteFile(*out, b, 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("ok %s (%d bytes)\n", *fetch, len(b))
	}
	if failed := checkFiles(flag.Args(), os.Stdout, os.Stderr); failed > 0 {
		log.Fatalf("%d of %d file(s) failed validation", failed, flag.NArg())
	}
}

// checkFiles validates every listed artifact, writing one "ok" line per
// valid file to out and one failure line per invalid file to errw, and
// returns the number of failures. All files are always evaluated — a
// bad artifact early in the list must not mask later ones, and vice
// versa — so the caller exits non-zero when any validator failed, not
// only the first or last.
func checkFiles(paths []string, out, errw io.Writer) int {
	failed := 0
	for _, path := range paths {
		n, err := check(path)
		if err != nil {
			fmt.Fprintf(errw, "obscheck: FAIL %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Fprintf(out, "ok %s (%d %s)\n", path, n, unit(path))
	}
	return failed
}

// retryBudget bounds each fetch/scrape retry loop; -fetch-timeout
// overrides the default. retryAttempts spaces the retries at
// retryInterval over the budget.
var (
	retryBudget = 10 * time.Second
	httpClient  = http.DefaultClient
)

const retryInterval = 100 * time.Millisecond

func retryAttempts() int {
	n := int(retryBudget / retryInterval)
	if n < 1 {
		n = 1
	}
	return n
}

// fetchURL fetches url, retrying across the -fetch-timeout budget so
// the caller can race obscheck against a simulation that is still
// binding its listener.
func fetchURL(url string) ([]byte, error) {
	var lastErr error
	for attempt, tries := 0, retryAttempts(); attempt < tries; attempt++ {
		resp, err := httpClient.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(retryInterval)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode != http.StatusOK:
			lastErr = fmt.Errorf("status %s", resp.Status)
		case len(b) == 0:
			lastErr = fmt.Errorf("empty body")
		default:
			return b, nil
		}
		time.Sleep(retryInterval)
	}
	return nil, lastErr
}

// scrapeProm fetches a /metrics endpoint, validates the exposition and
// retries until every required series is present with a nonzero value —
// cumulative counters published at the first sampling window may
// legitimately still read zero on early scrapes.
func scrapeProm(url string, require []string) ([]byte, int, error) {
	var lastErr error
	for attempt, tries := 0, retryAttempts(); attempt < tries; attempt++ {
		b, err := fetchURL(url)
		if err != nil {
			return nil, 0, err
		}
		n, err := checkProm(b)
		if err != nil {
			return nil, 0, err
		}
		if err := checkRequired(b, require); err != nil {
			lastErr = err
			time.Sleep(retryInterval)
			continue
		}
		return b, n, nil
	}
	return nil, 0, lastErr
}

// checkRequired verifies each required series appears as a sample with a
// nonzero value in the exposition.
func checkRequired(b []byte, require []string) error {
	for _, name := range require {
		found, nonzero := false, false
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			sname, value, ok := strings.Cut(line, " ")
			if !ok || sname != name {
				continue
			}
			found = true
			// Required series are cumulative counters, so "nonzero"
			// means strictly positive (also keeps the check free of
			// exact float equality).
			if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil && v > 0 {
				nonzero = true
			}
		}
		if !found {
			return fmt.Errorf("required series %q absent", name)
		}
		if !nonzero {
			return fmt.Errorf("required series %q is zero", name)
		}
	}
	return nil
}

func unit(path string) string {
	switch {
	case strings.HasSuffix(path, ".csv"):
		return "rows"
	case strings.HasSuffix(path, ".ndjson"):
		return "lines"
	case strings.HasSuffix(path, ".prom"):
		return "samples"
	case strings.HasSuffix(path, ".svg"):
		return "elements"
	default:
		return "bytes"
	}
}

// check validates one file and returns a size measure (rows, lines,
// samples, elements or bytes depending on the format).
func check(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("empty file")
	}
	switch {
	case strings.HasSuffix(path, ".csv"):
		return checkCSV(b)
	case strings.HasSuffix(path, ".ndjson"):
		return checkNDJSON(b)
	case strings.HasSuffix(path, ".svg"):
		return checkSVG(b)
	case strings.HasSuffix(path, ".prom"):
		return checkProm(b)
	case strings.HasSuffix(path, ".json"):
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			return 0, fmt.Errorf("invalid JSON: %v", err)
		}
		return len(b), nil
	default:
		return 0, fmt.Errorf("unknown artifact extension (want .json, .ndjson, .csv, .svg or .prom)")
	}
}

func checkCSV(b []byte) (int, error) {
	r := csv.NewReader(strings.NewReader(string(b)))
	// FieldsPerRecord defaults to the first record's width, enforcing a
	// rectangular table.
	recs, err := r.ReadAll()
	if err != nil {
		return 0, fmt.Errorf("invalid CSV: %v", err)
	}
	if len(recs) < 2 {
		return 0, fmt.Errorf("CSV has no data rows (only %d records)", len(recs))
	}
	// An artifact is recognized by its header, so its invariant applies
	// regardless of file name: the energy attribution's sum, the latency
	// breakdown's sum identity, the Jain index's (0,1] bound.
	for _, a := range []struct {
		header []string
		check  func([][]string) error
	}{
		{power.EnergyCSVHeader, checkEnergyCSV},
		{probe.SpanCSVHeader, checkBreakdownCSV},
		{flightrec.FairnessJainCSVHeader, checkJainCSV},
	} {
		if slices.Equal(recs[0], a.header) {
			if err := a.check(recs); err != nil {
				return 0, err
			}
		}
	}
	return len(recs) - 1, nil
}

// checkJainCSV enforces the Jain fairness bound on every channel row:
// the index is (Σx)²/(n·Σx²), which lies in (0, 1] for any allocation
// (empty channels report 1 by convention), so any value outside the
// bound is an emitter bug.
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

// checkBreakdownCSV enforces the span sum identity: the phase rows'
// cycles column must sum — exact integer equality — to the final total
// row, which must be last.
func checkBreakdownCSV(recs [][]string) error {
	last := recs[len(recs)-1]
	if last[0] != "total" {
		return fmt.Errorf("breakdown CSV: last row is %q, want the total row", last[0])
	}
	var sum, total uint64
	for i, rec := range recs[1:] {
		v, err := strconv.ParseUint(rec[2], 10, 64)
		if err != nil {
			return fmt.Errorf("breakdown CSV row %d: bad cycles %q", i+1, rec[2])
		}
		if rec[0] == "total" {
			if i != len(recs)-2 {
				return fmt.Errorf("breakdown CSV: total row is not last")
			}
			total = v
		} else {
			sum += v
		}
	}
	if sum != total {
		return fmt.Errorf("breakdown CSV: phase cycles sum to %d but total row says %d", sum, total)
	}
	return nil
}

// checkEnergyCSV enforces the attribution partition: the component rows'
// energy_pj and avg_power_mw columns must sum to the final total row
// (within float tolerance), and the total row must be last.
func checkEnergyCSV(recs [][]string) error {
	last := recs[len(recs)-1]
	if last[0] != "total" {
		return fmt.Errorf("energy CSV: last row is %q, want the total row", last[0])
	}
	sum := func(col int) (rows float64, total float64, err error) {
		for i, rec := range recs[1:] {
			v, perr := strconv.ParseFloat(rec[col], 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("energy CSV row %d: bad %s %q", i+1, power.EnergyCSVHeader[col], rec[col])
			}
			if rec[0] == "total" {
				if i != len(recs)-2 {
					return 0, 0, fmt.Errorf("energy CSV: total row is not last")
				}
				total = v
			} else {
				rows += v
			}
		}
		return rows, total, nil
	}
	for _, col := range []int{2, 3} { // energy_pj, avg_power_mw
		rows, total, err := sum(col)
		if err != nil {
			return err
		}
		tol := 1e-6 * math.Max(1, math.Abs(total))
		if !stats.ApproxEqual(rows, total, tol) {
			return fmt.Errorf("energy CSV: %s rows sum to %g but total row says %g",
				power.EnergyCSVHeader[col], rows, total)
		}
	}
	return nil
}

// checkNDJSON validates one-JSON-object-per-line framing. Flight
// recorder state dumps are recognized by a first record with
// rec=="meta"; in a dump, the meta record must carry its cycle and
// reason and every subsequent line must carry a string "rec" tag.
func checkNDJSON(b []byte) (int, error) {
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	dump := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			return 0, fmt.Errorf("line %d: invalid JSON object: %v", n+1, err)
		}
		rec, hasRec := v["rec"].(string)
		if n == 0 && hasRec && rec == "meta" {
			dump = true
			if _, ok := v["cycle"].(float64); !ok {
				return 0, fmt.Errorf("dump meta record lacks a numeric cycle")
			}
			if s, ok := v["reason"].(string); !ok || s == "" {
				return 0, fmt.Errorf("dump meta record lacks a reason")
			}
		} else if dump && !hasRec {
			return 0, fmt.Errorf("dump line %d lacks a \"rec\" tag", n+1)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("no NDJSON records")
	}
	return n, nil
}

// checkSVG verifies the file is well-formed XML whose root element is
// <svg> and returns the element count.
func checkSVG(b []byte) (int, error) {
	dec := xml.NewDecoder(strings.NewReader(string(b)))
	elements := 0
	root := ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("invalid XML: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if root == "" {
				root = se.Name.Local
			}
			elements++
		}
	}
	if root != "svg" {
		return 0, fmt.Errorf("root element is %q, want svg", root)
	}
	return elements, nil
}

// checkProm validates Prometheus text exposition (version 0.0.4 as the
// obs package emits it): every line is a HELP/TYPE comment or a
// `name value` sample with a legal metric name and a parseable value.
// Returns the sample count.
func checkProm(b []byte) (int, error) {
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	samples, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !validPromName(fields[2]) {
				return 0, fmt.Errorf("line %d: bad metric name %q", lineNo, fields[2])
			}
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || !validPromName(name) {
			return 0, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err != nil {
			return 0, fmt.Errorf("line %d: bad sample value %q", lineNo, value)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples")
	}
	return samples, nil
}

// validPromName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
