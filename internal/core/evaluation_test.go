package core

import (
	"reflect"
	"sync"
	"testing"

	"ownsim/internal/traffic"
)

// A view served from the plan is the view a new evaluation simulates:
// Figure 7b/c after 7a, Figure 6 after 5, and Figure 8's uniform rows
// alone against the whole figure's, exactly and with Power included. The
// other order — 7b/c first, 7a filling in the three patterns they did not
// ask for — gives the same rows, so a hit never depends on who ran first.
func TestEvaluationViewsEqualFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("two hundred 256-core and twenty 1024-core sims in -short mode")
	}
	b := Budget{Warmup: 100, Measure: 400, Loads: 3, Seed: 7}
	plan, fresh := NewEvaluation(b), NewEvaluation(b)

	rows7a := plan.Figure7a()
	before := plan.Census()
	br, un := plan.Figure7bc(traffic.BitReversal), plan.Figure7bc(traffic.Uniform)
	if c := plan.Census(); c != (Census{before.Simulated, before.Served + 30, before.Built}) {
		t.Fatalf("Figure7bc twice after Figure7a: %+v after %+v, want 30 served and nothing else", c, before)
	}
	if want := fresh.Figure7bc(traffic.BitReversal); !reflect.DeepEqual(br, want) {
		t.Errorf("Figure7bc(BitReversal) served:\n%+v\nsimulated:\n%+v", br, want)
	}
	if want := fresh.Figure7bc(traffic.Uniform); !reflect.DeepEqual(un, want) {
		t.Errorf("Figure7bc(Uniform) served:\n%+v\nsimulated:\n%+v", un, want)
	}
	if got := fresh.Figure7a(); !reflect.DeepEqual(got, rows7a) {
		t.Errorf("Figure7a after Figure7bc:\n%+v\nFigure7a first:\n%+v", got, rows7a)
	}
	if c := fresh.Census(); c != (Census{Simulated: 75, Served: 30, Built: 25}) {
		t.Errorf("Figure7bc twice, then Figure7a: %+v, want 75 simulated, 30 served, 25 built", c)
	}

	plan.Figure5()
	if got, want := plan.Figure6(), fresh.Figure6(); !reflect.DeepEqual(got, want) {
		t.Errorf("Figure6 after Figure5:\n%+v\nFigure6 alone:\n%+v", got, want)
	}
	if got, want := plan.Figure8(traffic.Uniform), fresh.Figure8(traffic.Uniform, traffic.BitReversal, traffic.Transpose)[:5]; !reflect.DeepEqual(got, want) {
		t.Errorf("Figure8(Uniform):\n%+v\nthe uniform rows of Figure8(Uniform, BitReversal, Transpose):\n%+v", got, want)
	}
}

// Two goroutines reading overlapping views of one evaluation: a key both
// miss at once is simulated twice and stored equal, so each gets the rows a
// serial evaluation gets. Run under -race (make race).
func TestEvaluationConcurrentViews(t *testing.T) {
	b := Budget{Warmup: 100, Measure: 300, Loads: 2, Seed: 7}
	e := NewEvaluation(b)
	var got [2][]Fig7bcSeries
	var got6 [2][]Fig6Row
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = e.Figure7bc(traffic.Uniform)
			if g == 0 {
				e.Figure5()
			}
			got6[g] = e.Figure6()
		}()
	}
	wg.Wait()
	serial := NewEvaluation(b)
	want, want6 := serial.Figure7bc(traffic.Uniform), serial.Figure6()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) || !reflect.DeepEqual(got6[g], want6) {
			t.Errorf("goroutine %d read\n%+v\n%+v\na serial evaluation reads\n%+v\n%+v", g, got[g], got6[g], want, want6)
		}
	}
}
