package report

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/traffic"
)

// quickMeasured is what each claim reads at the quick budget, as text: a
// change to the rows a claim asks the plan for, or to a digit of them, is a
// diff here.
var quickMeasured = []string{
	"4.56 dBm",
	"Psat 7.15 dBm vs 4.56 needed",
	"-89.2 dBc/Hz (simulated PSD)",
	"4.99 dBm",
	"20.0 GHz",
	"10.0 dB at 90 GHz",
	"c1=7.51 c2=3.63 c3=8.75 c4=1.78 mW",
	"76%",
	"c1=3.56 c2=2.09 c3=4.32 c4=1.14 mW",
	"68%",
	"optxb 478 mW vs own4 756, pclos 839, wcmesh 888, cmesh 973",
	"1.58x",
	"cmesh/own4 = 1.29x",
	"1.17x",
	"c1 825, c3 840 vs c4 756 mW",
	"own 0.0072 vs cmesh 0.0072, optxb 0.0051, pclos 0.0051, wcmesh 0.0029 f/n/c",
	"zero-load 57 vs 172 cycles (67% lower)",
	"spread 19%",
	"+14%",
	"own 2792 vs wcmesh 4749 pJ/pkt",
}

func checkQuickMeasured(t *testing.T, rep Report) {
	t.Helper()
	if len(rep.Claims) != len(quickMeasured) {
		t.Fatalf("%d claims, want %d", len(rep.Claims), len(quickMeasured))
	}
	for i, c := range rep.Claims {
		if c.Measured != quickMeasured[i] {
			t.Errorf("%s measured %q, want %q", c.ID, c.Measured, quickMeasured[i])
		}
	}
}

func TestEvaluateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep := Evaluate(core.QuickBudget(), time.Unix(0, 0).UTC())
	if len(rep.Claims) < 15 {
		t.Fatalf("only %d claims tracked", len(rep.Claims))
	}
	// The quick budget must reproduce the large majority; log failures
	// for inspection.
	for _, c := range rep.Claims {
		if !c.Pass {
			t.Logf("FAIL %s: %s (paper: %s)", c.ID, c.Measured, c.Paper)
		}
	}
	if rep.Passed() < len(rep.Claims)-2 {
		t.Fatalf("%d/%d claims reproduced; expected near-complete", rep.Passed(), len(rep.Claims))
	}
	checkQuickMeasured(t, rep)
	// The claims read 36 runs, Figure 8's uniform rows only, planned as
	// one pool: Figure 6's OWN bars are Figure 5's ideal run, and the
	// figures then read 37 runs from the memo. At GOMAXPROCS 1 the pool
	// builds one network per spec that misses: 12 (the two priced OWN-256
	// runs, five 256-core and five 1024-core systems).
	if want := (core.Census{Simulated: 36, Served: 37, Built: 12}); rep.Census != want {
		t.Errorf("plan %+v, want %+v", rep.Census, want)
	}
	data, err := rep.JSON()
	if err != nil || strings.Contains(string(data), "ensus") || strings.Contains(rep.Markdown(), "plan:") {
		t.Errorf("the census reached the ledger (err %v):\n%s", err, data)
	}
}

// TestQuickClaimsOnLowDrawSeeds scores the quick claims on seeds 5, 12 and
// 15. Their uniform point near 0.0029 f/n/c offered about 10 % less than
// its nominal load; judged against the nominal load, every network failed
// it together and fig7b/own-saturates-last failed. Judged against what
// was offered (stats.Summary.Saturated), every claim reproduces.
func TestQuickClaimsOnLowDrawSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("three evaluations in -short mode")
	}
	for _, seed := range []uint64{5, 12, 15} {
		b := core.QuickBudget()
		b.Seed = seed
		rep := Evaluate(b, time.Unix(0, 0).UTC())
		for _, c := range rep.Claims {
			if !c.Pass {
				t.Errorf("seed %d: %s failed: %s (paper: %s)", seed, c.ID, c.Measured, c.Paper)
			}
		}
	}
}

// After the figures ran on an evaluation (cmd/paper all), scoring the
// claims on it simulates nothing and builds nothing — every row a claim
// reads is a row a figure simulated — and reads what Evaluate reads.
func TestScoreAfterFiguresSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	e := core.NewEvaluation(core.QuickBudget())
	e.Figure5()
	e.Figure6()
	e.Figure7a()
	e.Figure7bc(traffic.Uniform)
	e.Figure7bc(traffic.BitReversal)
	e.Figure8(traffic.Uniform, traffic.BitReversal, traffic.Transpose)
	before := e.Census()
	rep := Score(e, time.Unix(0, 0).UTC())
	checkQuickMeasured(t, rep)
	after := e.Census()
	if after.Simulated != before.Simulated || after.Built != before.Built || after.Served <= before.Served {
		t.Errorf("scoring moved the plan from %+v to %+v, want served requests only", before, after)
	}
	if rep.Census != after || rep.Budget != "warmup=800 measure=2500 loads=5 seed=1" {
		t.Errorf("report census %+v budget %q", rep.Census, rep.Budget)
	}
}

// The plan lives in one Evaluate call: a second call simulates and builds
// as much as the first, so a loop over Evaluate measures an evaluation
// each time. GOMAXPROCS 1 makes Built exact.
func TestEvaluateSharesNothingBetweenCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := core.Budget{Warmup: 100, Measure: 400, Loads: 3, Seed: 7}
	first, second := Evaluate(b, time.Unix(0, 0).UTC()), Evaluate(b, time.Unix(0, 0).UTC())
	if want := (core.Census{Simulated: 26, Served: 27, Built: 12}); first.Census != want || second.Census != want {
		t.Fatalf("two Evaluate calls planned %+v then %+v, want %+v both times", first.Census, second.Census, want)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two Evaluate calls differ:\n%+v\n%+v", first, second)
	}
}

// allViews are the five figures' views as cmd/paper plans them.
var allViews = []core.View{{Figure: 5}, {Figure: 6}, {Figure: 7, Patterns: traffic.AllPaperPatterns()},
	{Figure: 7, Patterns: []traffic.Pattern{traffic.Uniform, traffic.BitReversal}},
	{Figure: 8, Patterns: []traffic.Pattern{traffic.Uniform, traffic.BitReversal, traffic.Transpose}}}

// figures reads what allViews plans, in its order, Figure 7b/c as two
// calls.
var figures = []func(e *core.Evaluation) any{
	func(e *core.Evaluation) any { return e.Figure5() },
	func(e *core.Evaluation) any { return e.Figure6() },
	func(e *core.Evaluation) any { return e.Figure7a() },
	func(e *core.Evaluation) any { return e.Figure7bc(traffic.Uniform) },
	func(e *core.Evaluation) any { return e.Figure7bc(traffic.BitReversal) },
	func(e *core.Evaluation) any {
		return e.Figure8(traffic.Uniform, traffic.BitReversal, traffic.Transpose)
	},
}

// One result for any schedule: the ledger and all five figures read the
// same at GOMAXPROCS 1 and 4, whether one Plan of every view ran first or
// each view ran alone on a fresh evaluation; and after the Plan the
// figures simulate and build nothing. Run under -race (make race).
func TestOneResultForAnySchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("two evaluations and three full figure sets in -short mode")
	}
	b := core.QuickBudget()
	var reps []Report
	var planned [][]any
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		reps = append(reps, Evaluate(b, time.Unix(0, 0).UTC()))
		e := core.NewEvaluation(b)
		e.Plan(allViews...)
		before := e.Census()
		var rows []any
		for _, f := range figures {
			rows = append(rows, f(e))
		}
		planned = append(planned, rows)
		if after := e.Census(); after.Simulated != before.Simulated || after.Built != before.Built || after.Served != before.Served+197 {
			t.Errorf("GOMAXPROCS %d: the figures after Plan moved the census from %+v to %+v, want 197 served and nothing else", procs, before, after)
		}
		runtime.GOMAXPROCS(old)
	}
	if !reflect.DeepEqual(reps[0].Claims, reps[1].Claims) {
		t.Errorf("the ledger depends on GOMAXPROCS:\n%+v\n%+v", reps[0].Claims, reps[1].Claims)
	}
	if !reflect.DeepEqual(planned[0], planned[1]) {
		t.Errorf("the figures depend on GOMAXPROCS")
	}
	for i, f := range figures {
		if alone := f(core.NewEvaluation(b)); !reflect.DeepEqual(planned[0][i], alone) {
			t.Errorf("figure %d after one Plan:\n%+v\nalone on a fresh evaluation:\n%+v", i, planned[0][i], alone)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := Report{
		GeneratedAt: time.Unix(0, 0).UTC(),
		Budget:      "test",
		Claims: []Claim{
			{ID: "a", Paper: "p", Measured: "m", Pass: true},
			{ID: "b", Paper: "q", Measured: "n", Pass: false},
		},
	}
	md := rep.Markdown()
	if !strings.Contains(md, "1/2 reproduced") || !strings.Contains(md, "FAIL") {
		t.Fatalf("markdown rendering wrong:\n%s", md)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Claims) != 2 || back.Claims[0].ID != "a" {
		t.Fatal("JSON round trip failed")
	}
	if rep.Passed() != 1 {
		t.Fatalf("Passed = %d", rep.Passed())
	}
}

func TestRFClaimsAllPass(t *testing.T) {
	for _, c := range rfClaims() {
		if !c.Pass {
			t.Errorf("RF claim %s failed: %s", c.ID, c.Measured)
		}
	}
}
