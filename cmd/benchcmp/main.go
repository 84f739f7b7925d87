// Command benchcmp compares a `go test -bench -benchmem` output file
// against the checked-in baseline (BENCH_BASELINE.txt) and fails when a
// benchmark's allocs/op regresses. allocs/op is deterministic for these
// benchmarks — the simulation is fixed-seed and runs on one goroutine —
// so it is gated strictly. ns/op and B/op vary with hardware and Go version,
// so by default they are reported but never gate; -max-ns-ratio opts
// into a loose wall-time gate for CI environments whose hardware is
// stable enough to bound it.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | tee bench.txt
//	go run ./cmd/benchcmp -baseline BENCH_BASELINE.txt bench.txt
//
// Exit status is non-zero when any baseline benchmark is missing from
// the new output, its allocs/op exceeds the baseline by more than
// -allow-allocs-pct percent (default 0: any increase fails), or — with
// -max-ns-ratio R set — its ns/op exceeds R times the baseline.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	name   string
	nsOp   float64
	bOp    float64 // -1 when -benchmem was absent
	allocs float64 // -1 when -benchmem was absent
}

// parseBench extracts benchmark result lines from `go test -bench` output.
// Lines look like:
//
//	BenchmarkUniform256  	      10	  78656436 ns/op	  775593 B/op	    6261 allocs/op
//
// Anything else (headers, PASS, ok lines) is ignored. A repeated name
// keeps the last occurrence, matching `-count=N` usage where the final
// run is the warmest.
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		r := result{bOp: -1, allocs: -1}
		// Strip any -N GOMAXPROCS suffix so baselines are portable.
		r.name = fields[0]
		if i := strings.LastIndex(r.name, "-"); i > 0 {
			if _, err := strconv.Atoi(r.name[i+1:]); err == nil {
				r.name = r.name[:i]
			}
		}
		if r.nsOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				r.bOp = v
			case "allocs/op":
				r.allocs = v
			}
		}
		out[r.name] = r
	}
	return out, sc.Err()
}

func ratio(new, old float64) string {
	if math.Abs(old) < 1e-12 {
		if math.Abs(new) < 1e-12 {
			return "="
		}
		return "worse (was 0)"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func main() {
	baseline := flag.String("baseline", "BENCH_BASELINE.txt", "baseline benchmark output to compare against")
	allowPct := flag.Float64("allow-allocs-pct", 0, "allowed allocs/op increase in percent before failing")
	maxNsRatio := flag.Float64("max-ns-ratio", 0, "fail when ns/op exceeds this multiple of the baseline (0 = ns/op never gates, the default)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-baseline FILE] [-allow-allocs-pct N] [-max-ns-ratio R] NEW_BENCH_OUTPUT")
		os.Exit(2)
	}
	if *maxNsRatio < 0 || (*maxNsRatio > 0 && *maxNsRatio < 1) {
		fmt.Fprintln(os.Stderr, "benchcmp: -max-ns-ratio must be 0 (disabled) or >= 1")
		os.Exit(2)
	}

	base, err := parseBench(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: reading baseline: %v\n", err)
		os.Exit(2)
	}
	next, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: reading new output: %v\n", err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: no benchmark lines in baseline %s\n", *baseline)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		old := base[name]
		cur, ok := next[name]
		if !ok {
			fmt.Printf("MISSING  %-28s present in baseline, absent from new output\n", name)
			failed = true
			continue
		}
		verdict := "ok"
		if old.allocs >= 0 && cur.allocs >= 0 {
			limit := old.allocs * (1 + *allowPct/100)
			if cur.allocs > limit {
				verdict = "FAIL allocs/op regressed"
				failed = true
			}
		} else if old.allocs >= 0 && cur.allocs < 0 {
			verdict = "FAIL new output missing allocs/op (run with -benchmem)"
			failed = true
		}
		if *maxNsRatio > 0 && old.nsOp > 0 && cur.nsOp > old.nsOp**maxNsRatio {
			verdict = "FAIL ns/op regressed"
			failed = true
		}
		fmt.Printf("%-8s %-28s ns/op %12.4g -> %12.4g (%s)  allocs/op %6.4g -> %6.4g (%s)\n",
			verdict, name, old.nsOp, cur.nsOp, ratio(cur.nsOp, old.nsOp),
			old.allocs, cur.allocs, ratio(cur.allocs, old.allocs))
	}
	for name := range next {
		if _, ok := base[name]; !ok {
			fmt.Printf("new      %-28s not in baseline (informational)\n", name)
		}
	}
	if failed {
		fmt.Println("benchcmp: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}
