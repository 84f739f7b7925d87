package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// loadSet reads a result set. "FILE#N" selects set N of a file holding
// {"sets": [...]}, such as results/baseline.json.
func loadSet(spec string) (*resultSet, error) {
	path, idx, multi := strings.Cut(spec, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !multi {
		var s resultSet
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(s.Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads; for a file of several sets name one as %s#0", path, path)
		}
		return &s, nil
	}
	var f struct {
		Sets []*resultSet `json:"sets"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= len(f.Sets) {
		return nil, fmt.Errorf("%s holds %d sets, no set %q", path, len(f.Sets), idx)
	}
	return f.Sets[i], nil
}

// compareFiles prints the comparison of two result files and returns the
// exit code.
func compareFiles(specA, specB string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile()
	var a, b *resultSet
	if err == nil {
		a, err = loadSet(specA)
	}
	if err == nil {
		b, err = loadSet(specB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compareSets(a, b, bf.EndToEnd, stdout) {
		return 1
	}
	return 0
}

// compareSets prints, per workload and end-to-end metric, the two
// medians, B's ratio to its base A, and a status against the metric's
// bound: "ok", "outside-bound" (B is worse than A by more than the
// bound), "unresolved" (on either side the rounds, which are separate
// processes minutes apart on the same inputs, spread wider than the bound,
// and B's rounds are not all better than A's) or "missing" (a side has no
// positive value). It reports whether B holds: nothing missing or outside
// its bound and no larger share of failed checks.
func compareSets(a, b *resultSet, defs []metricDef, out io.Writer) bool {
	holds := true
	fmt.Fprintf(out, "A: commit %s seed %d   B: commit %s seed %d   (ratio = B/A, base A)\n", a.Env.Commit, a.Seed, b.Env.Commit, b.Seed)
	fmt.Fprintf(out, "%-20s %-17s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "status")
	for _, w := range workloads() {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wa.Untraced == nil || wb == nil || wb.Untraced == nil {
			fmt.Fprintf(out, "%-20s missing from one side\n", w.Name)
			holds = false
			continue
		}
		ua, ub := wa.Untraced, wb.Untraced
		for _, d := range defs {
			va, vb := ua.Metrics[d.Name].Value, ub.Metrics[d.Name].Value
			status := compareMetric(d, va, vb, ua.RoundMedians[d.Name], ub.RoundMedians[d.Name])
			holds = holds && status != "outside-bound" && status != "missing"
			ratio := "-"
			if va > 0 {
				ratio = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Fprintf(out, "%-20s %-17s %14.6g %14.6g %8s %5.1f%%  %s\n", w.Name, d.Name, va, vb, ratio, 100*d.Bound, status)
		}
		// failed_ops/ops must not grow: b.failed/b.ops > a.failed/a.ops.
		grew := ub.FailedOps*ua.Ops > ua.FailedOps*ub.Ops
		status := "ok"
		if grew {
			status, holds = "more-failures", false
		}
		fmt.Fprintf(out, "%-20s %-17s %14s %14s %8s %6s  %s\n", w.Name, "failed_ops/ops",
			fmt.Sprintf("%d/%d", ua.FailedOps, ua.Ops), fmt.Sprintf("%d/%d", ub.FailedOps, ub.Ops), "", "", status)
		if ua.Fingerprint != ub.Fingerprint {
			fmt.Fprintf(out, "%-20s simulated statistics differ: fingerprint %s vs %s\n", w.Name, ua.Fingerprint, ub.Fingerprint)
		}
	}
	return holds
}

func compareMetric(d metricDef, va, vb float64, roundsA, roundsB []float64) string {
	// Every end-to-end metric is positive on a run that measured it.
	if !(va > 0 && vb > 0) {
		return "missing"
	}
	worse := vb/va - 1
	if d.Better == "higher" {
		worse = va/vb - 1
	}
	da, db := summarize(roundsA), summarize(roundsB)
	spread := func(x dist) float64 {
		if x.N == 0 || x.Median <= 0 {
			return 0
		}
		return (x.Q3 - x.Q1) / x.Median
	}
	if spread(da) > d.Bound || spread(db) > d.Bound {
		allBetter := db.Max < da.Min
		if d.Better == "higher" {
			allBetter = db.Min > da.Max
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > d.Bound {
		return "outside-bound"
	}
	return "ok"
}
