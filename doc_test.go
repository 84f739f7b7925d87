package ownsim_test

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// DESIGN.md §3 lists every package under internal/ and cmd/, and only directories that exist.
func TestDesignInventoryMatchesTree(t *testing.T) {
	design, _ := os.ReadFile("DESIGN.md") // unreadable reads as empty: every package then fails below
	_, inv, _ := strings.Cut(string(design), "## 3. Package inventory\n\n```")
	inv, _, _ = strings.Cut(inv, "```")
	for _, line := range strings.Split(inv, "\n") {
		if f := strings.Fields(line); len(f) > 0 && line[0] != ' ' {
			if _, err := os.Stat(f[0]); err != nil {
				t.Errorf("DESIGN.md §3 names a directory that does not exist: %v", err)
			}
		}
	}
	internal, _ := filepath.Glob("internal/*/*.go")
	cmd, _ := filepath.Glob("cmd/*/*.go")
	for _, f := range append(internal, cmd...) {
		if dir := filepath.Dir(f); !strings.HasSuffix(f, "_test.go") && !strings.Contains(inv, "\n"+dir+" ") {
			t.Errorf("DESIGN.md §3 has no line for %s", dir)
			inv += "\n" + dir + " " // once per directory
		}
	}
}

// mdTable returns the first Markdown table under the "## heading ..."
// section of doc, header row first, cells trimmed and bold marks
// dropped; nil when there is none.
func mdTable(doc, heading string) [][]string {
	_, sec, ok := strings.Cut(doc, "\n## "+heading+" ")
	if !ok {
		return nil
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var row []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			row = append(row, strings.Trim(strings.TrimSpace(c), "*"))
		}
		rows = append(rows, row)
	}
	return rows
}

// readCSV returns the records of a results/ CSV, header row first.
func readCSV(t *testing.T, name string) [][]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("results", name))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(string(b))).ReadAll()
	if err != nil || len(recs) < 2 {
		t.Fatalf("%s: %d records, %v", name, len(recs), err)
	}
	return recs
}

// TestExperimentsTablesMatchResults: EXPERIMENTS.md's Figure 6 table
// (mW, rounded to integers) and Figure 7a table (4 decimals) print every
// row of results/fig6_power_breakdown.csv and results/fig7a_throughput.csv
// at that rounding, and no other row.
func TestExperimentsTablesMatchResults(t *testing.T) {
	doc, _ := os.ReadFile("EXPERIMENTS.md") // unreadable reads as empty: both tables then fail below
	round := func(s string, decimals int) string {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return "bad number " + s
		}
		if decimals == 0 {
			return strconv.FormatFloat(math.Round(v), 'f', 0, 64)
		}
		return fmt.Sprintf("%.*f", decimals, v)
	}
	// want maps "row/column" to the cell EXPERIMENTS.md must print.
	compare := func(heading, file string, want map[string]string, table [][]string) {
		if len(table) < 2 {
			t.Errorf("EXPERIMENTS.md has no %s table", heading)
			return
		}
		got := make(map[string]string)
		for _, row := range table[1:] {
			if len(row) != len(table[0]) {
				t.Errorf("%s: row %s has %d cells, the header %d", heading, row[0], len(row), len(table[0]))
				continue
			}
			for j, cell := range row[1:] {
				got[row[0]+"/"+table[0][j+1]] = cell
			}
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: cell %s reads %q, %s rounds to %q", heading, k, got[k], file, w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: cell %s has no value in %s", heading, k, file)
			}
		}
	}

	const fig6, fig7a = "Figure 6", "Figure 7a"
	// Figure 6: one row per system, the table's columns in the CSV's order.
	table, recs := mdTable(string(doc), fig6), readCSV(t, "fig6_power_breakdown.csv")
	if len(table) > 0 && len(table[0]) != len(recs[0]) {
		t.Errorf("%s: the table has %d columns, the CSV %d", fig6, len(table[0]), len(recs[0]))
	}
	want := make(map[string]string)
	for _, rec := range recs[1:] {
		for j, v := range rec[1:] {
			if len(table) > 0 && j+1 < len(table[0]) {
				want[rec[0]+"/"+table[0][j+1]] = round(v, 0)
			}
		}
	}
	compare(fig6, "fig6_power_breakdown.csv", want, table)

	// Figure 7a: the CSV's (pattern, system) rows are the table's cells.
	want = make(map[string]string)
	for _, rec := range readCSV(t, "fig7a_throughput.csv")[1:] {
		want[rec[0]+"/"+rec[1]] = round(rec[2], 4)
	}
	compare(fig7a, "fig7a_throughput.csv", want, mdTable(string(doc), fig7a))
}
