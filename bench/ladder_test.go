package main

import (
	"strings"
	"testing"
)

// BenchmarkLadder runs the ladder rungs under the testing package, from
// the fixtures the harness itself uses: `go test -bench Ladder` reports
// each rung under the metric name `bash bench/run.sh` prints it by.
func BenchmarkLadder(b *testing.B) {
	for _, r := range ladder() {
		b.Run(strings.TrimPrefix(r.Name, "ladder."), func(b *testing.B) {
			run := r.Setup()
			b.ResetTimer()
			run(b.N)
			b.StopTimer()
			b.ReportMetric(r.value(b.Elapsed(), b.N), r.Name)
		})
	}
}

// TestLadderRungsRun drives every rung's fixture for a few operations, in
// two batches, so a rung whose state does not carry over fails here and
// not in the middle of a benchmark run.
func TestLadderRungsRun(t *testing.T) {
	for _, r := range ladder() {
		run := r.Setup()
		run(200)
		run(200)
	}
}
