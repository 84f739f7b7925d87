package main

import "testing"

func TestVerdict(t *testing.T) {
	base := result{name: "BenchmarkUniform256", nsOp: 100, bOp: 1000, allocs: 1000}
	noMem := result{name: base.name, nsOp: 100, bOp: -1, allocs: -1}
	for _, tc := range []struct {
		name       string
		old, cur   result
		allowPct   float64
		maxNsRatio float64
		want       string
	}{
		{"equal", base, base, 0, 0, "ok"},
		{"one more alloc", base, result{nsOp: 100, allocs: 1001}, 0, 0, "FAIL allocs/op regressed"},
		{"within allowance", base, result{nsOp: 100, allocs: 1009}, 1, 0, "ok"},
		{"past allowance", base, result{nsOp: 100, allocs: 1011}, 1, 0, "FAIL allocs/op regressed"},
		{"2 % below", base, result{nsOp: 100, allocs: 980}, 0, 0, "ok"},
		{"more than 2 % below", base, result{nsOp: 100, allocs: 979}, 0, 0, "FAIL baseline stale: refresh BENCH_BASELINE.txt"},
		{"zero stays zero", result{nsOp: 10}, result{nsOp: 10}, 0, 0, "ok"},
		{"no -benchmem", base, noMem, 0, 0, "FAIL new output missing allocs/op (run with -benchmem)"},
		{"baseline without -benchmem", noMem, base, 0, 0, "ok"},
		{"slower, ns ungated", base, result{nsOp: 900, allocs: 1000}, 0, 0, "ok"},
		{"slower than the ns gate", base, result{nsOp: 201, allocs: 1000}, 0, 2, "FAIL ns/op regressed"},
		{"inside the ns gate", base, result{nsOp: 199, allocs: 1000}, 0, 2, "ok"},
	} {
		if got := verdict(tc.old, tc.cur, tc.allowPct, tc.maxNsRatio); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}
