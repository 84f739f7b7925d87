package stats

import "math"

// JainIndex computes Jain's fairness index over a set of non-negative
// allocations: J = (Σx)² / (n·Σx²), which is 1 when every x_i is equal
// and approaches 1/n when one participant takes everything. Non-finite
// and negative inputs are skipped. An empty or all-zero population is
// perfectly fair by convention (J = 1), so the index always lies in
// (0, 1] — obscheck.TestRecordInvariants enforces exactly that bound on the
// fairness artifacts of a record.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			continue
		}
		sum += x
		sumSq += float64(x * x)
		n++
	}
	if n == 0 || ApproxZero(sumSq, 0) {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
