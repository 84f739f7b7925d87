package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestParseItems(t *testing.T) {
	var all []string
	for _, it := range items {
		all = append(all, it.key)
		sel, err := parseItems([]string{it.key})
		if err != nil || len(sel) != 1 || !sel[it.key] {
			t.Errorf("parseItems(%q) = %v, %v; want that item alone", it.key, sel, err)
		}
	}
	// The accepted set is the printers' keys: this is the list the doc
	// comment, README and the error line promise.
	if want := strings.Fields("table1 table2 table3 table4 inventory fig3 fig4 fig5 fig6 fig7a fig7bc fig8 claims"); !slices.Equal(all, want) {
		t.Errorf("items are %v, want %v", all, want)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, all},
		{[]string{"all"}, all},
		{[]string{"tables"}, all[:5]},
		{[]string{"figures"}, all[5:12]},
		{[]string{"claims", "tables"}, append(slices.Clone(all[:5]), "claims")},
		{[]string{"fig8", "fig3", "fig8"}, []string{"fig3", "fig8"}},
	} {
		sel, err := parseItems(tc.args)
		if err != nil {
			t.Errorf("parseItems(%q): %v", tc.args, err)
			continue
		}
		var got []string
		for _, it := range items {
			if sel[it.key] {
				got = append(got, it.key)
			}
		}
		if !slices.Equal(got, tc.want) || len(sel) != len(tc.want) {
			t.Errorf("parseItems(%q) selects %v, want %v", tc.args, got, tc.want)
		}
	}
	for _, bad := range []string{"table9", "fig7b", "7a", "", "ALL", "fig5|fig6"} {
		if sel, err := parseItems([]string{"fig3", bad}); err == nil || !strings.Contains(err.Error(), "fig7bc") {
			t.Errorf("parseItems(%q) = %v, %v; want an error listing the items", bad, sel, err)
		}
	}
}

// -out writes what results/ holds, under its names: the selected figures'
// CSVs and each selected group's text. Figures 3-4 read no simulation, so
// their CSVs are results/'s at any budget.
func TestOutWritesResultsFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", dir, "fig3", "fig4", "table1", "inventory"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	if got, want := stderr.String(), "plan: 0 runs simulated, 0 served, 0 networks built\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"fig3_linkbudget.csv", "fig4b_pa_compression.csv", "fig4c_gains.csv", "figures_full.txt", "tables.txt"}
	if !slices.Equal(names, want) {
		t.Fatalf("-out wrote %v, want %v", names, want)
	}
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, name := range want[:3] {
		if read(filepath.Join(dir, name)) != read(filepath.Join("..", "..", "results", name)) {
			t.Errorf("%s differs from results/%s", name, name)
		}
	}
	// Canonical order whatever the argument order, and stdout is the
	// groups' texts back to back.
	tables, figures := read(filepath.Join(dir, "tables.txt")), read(filepath.Join(dir, "figures_full.txt"))
	if stdout.String() != tables+figures {
		t.Errorf("stdout is not tables.txt followed by figures_full.txt:\n%s", &stdout)
	}
	if !strings.HasPrefix(tables, "Table I —") || !strings.Contains(tables, "\nPhotonic component inventory") || strings.Contains(tables, "Table II") {
		t.Errorf("tables.txt:\n%s", tables)
	}
	if !strings.HasPrefix(figures, "Figure 3 —") || !strings.Contains(figures, "\nFigure 4 —") ||
		!strings.Contains(figures, "[wrote "+filepath.Join(dir, "fig4c_gains.csv")+"]\n") {
		t.Errorf("figures_full.txt:\n%s", figures)
	}
}

func TestUnknownItemIsOneLineExit2(t *testing.T) {
	for _, arg := range []string{"table9", "fig7b"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{arg}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "paper: unknown item ") {
			t.Errorf("paper %s: exit %d, stdout %q, stderr %q; want exit 2 and one line", arg, code, &stdout, &stderr)
		}
	}
}

// runStamp matches the lines that name the run and not its result, the
// ones make results-check strips too: "[wrote <path>]" (the directory),
// claims.json's "generated_at" and claims.md's "Generated" (the time).
var runStamp = regexp.MustCompile(`^(\[wrote |  "generated_at": |Generated )`)

// TestQuickAllMatchesDigests runs `paper -quick -out DIR all` in process
// and pins every file it writes, run-stamp lines removed, to
// testdata/record.sha256: the tables, the figures' text and CSVs, and the
// claims ledger at the quick budget. A moved digest is either a bug or a
// change of results to state; the failure prints the complete new sums
// file.
func TestQuickAllMatchesDigests(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", dir, "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sums strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if !runStamp.MatchString(line) {
				h.Write([]byte(line))
			}
		}
		fmt.Fprintf(&sums, "%x  %s\n", h.Sum(nil), e.Name())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "record.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sums.String(); got != string(want) {
		t.Errorf("paper -quick all differs from testdata/record.sha256; its sums are:\n%s", got)
	}
}
