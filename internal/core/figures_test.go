package core

import (
	"math"
	"testing"

	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func fig6Map(t *testing.T) map[string]Fig6Row {
	t.Helper()
	rows := NewEvaluation(QuickBudget()).Figure6()
	m := map[string]Fig6Row{}
	for _, r := range rows {
		m[r.Label] = r
		t.Logf("fig6 %-12s total=%7.1f mW  %s", r.Label, r.Power.TotalMW(), r.Power)
	}
	return m
}

// TestFigure6Ordering is the headline calibration check: the relative
// power ordering of the paper's Figure 6 must hold in simulation.
func TestFigure6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sims in -short mode")
	}
	m := fig6Map(t)
	optxb := m["optxb"].Power.TotalMW()
	own4 := m["own-config4"].Power.TotalMW()
	own1 := m["own-config1"].Power.TotalMW()
	own3 := m["own-config3"].Power.TotalMW()
	wc := m["wcmesh"].Power.TotalMW()
	cm := m["cmesh"].Power.TotalMW()
	pc := m["pclos"].Power.TotalMW()

	if !(optxb < own4 && optxb < pc && optxb < wc && optxb < cm) {
		t.Errorf("OptXB must consume the least power: optxb=%v own4=%v pclos=%v wcmesh=%v cmesh=%v",
			optxb, own4, pc, wc, cm)
	}
	if !(cm > own4*1.15) {
		t.Errorf("CMESH should exceed OWN-config4 by >30%% (paper); got cmesh=%v own4=%v", cm, own4)
	}
	if !(wc > own4*0.95 && wc < own4*1.35) {
		t.Errorf("wireless-CMESH should sit a few %% above OWN-config4 (paper +7%%); got wcmesh=%v own4=%v", wc, own4)
	}
	if !(own1 > own4 && own3 > own4) {
		t.Errorf("configs 1/3 must exceed config 4: %v %v vs %v", own1, own3, own4)
	}
	ratio := own4 / optxb
	if ratio < 1.3 || ratio > 3.0 {
		t.Errorf("OWN-config4 should be roughly 2x OptXB (paper); got %.2fx", ratio)
	}
}

// TestFigure5Measured verifies the measured (simulated) wireless link
// power reproduces the Figure 5 ordering, not just the analytic plan.
func TestFigure5Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sims in -short mode")
	}
	rows := NewEvaluation(QuickBudget()).Figure5()
	byKey := map[string]float64{}
	for _, r := range rows {
		t.Logf("fig5 %-13s %-8s avgChannel=%.4f mW (plan %.3f pJ/b)",
			r.Scenario, r.Config, r.AvgChannelMW, r.PlanMeanEPBpJ)
		byKey[r.Scenario.String()+"/"+r.Config.String()] = r.AvgChannelMW
	}
	for _, scen := range []string{"ideal", "conservative"} {
		c1 := byKey[scen+"/config1"]
		c2 := byKey[scen+"/config2"]
		c3 := byKey[scen+"/config3"]
		c4 := byKey[scen+"/config4"]
		if !(c3 >= c1*0.8 && c1 > c2 && c2 > c4) {
			t.Errorf("%s: wireless power ordering violated: c1=%v c2=%v c3=%v c4=%v", scen, c1, c2, c3, c4)
		}
		red2, red4 := 1-c2/c1, 1-c4/c1
		if red2 < 0.3 || red2 > 0.75 {
			t.Errorf("%s: config2 reduction %.0f%%, paper 47-60%%", scen, red2*100)
		}
		if red4 < 0.55 || red4 > 0.90 {
			t.Errorf("%s: config4 reduction %.0f%%, paper 57-80%%", scen, red4*100)
		}
	}
}

// TestFigure7bOWNSaturatesLast checks the latency result: OWN tolerates
// the highest load before the 3x zero-load latency crossing.
func TestFigure7bOWNSaturatesLast(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sims in -short mode")
	}
	series := NewEvaluation(QuickBudget()).Figure7bc(traffic.Uniform)
	cap := map[string]float64{}
	for _, s := range series {
		cap[s.SystemName] = s.CapacityLoad
		t.Logf("fig7b %-8s capacity knee %.5f f/n/c (3x-zero-load %.5f), zero-load %.1f cy",
			s.SystemName, s.CapacityLoad, s.SaturationLoad, s.Points[0].Latency)
	}
	for _, name := range []string{"cmesh", "wcmesh", "optxb", "pclos"} {
		if cap["own"] < cap[name] {
			t.Errorf("OWN must saturate last (paper Fig. 7b): own=%v %s=%v", cap["own"], name, cap[name])
		}
	}
	// Zero-load latency: OWN must beat CMESH clearly (paper: 20-50%).
	var ownZL, cmZL float64
	for _, s := range series {
		if s.SystemName == "own" {
			ownZL = s.Points[0].Latency
		}
		if s.SystemName == "cmesh" {
			cmZL = s.Points[0].Latency
		}
	}
	if ownZL >= cmZL {
		t.Errorf("OWN zero-load latency %v should beat CMESH %v", ownZL, cmZL)
	}
}

// TestFigure8Shape: at 1024 cores throughput differences stay small at
// the common operating point, and OWN consumes more than OptXB but less
// than wireless-CMESH (paper: +30% vs OptXB, -3% vs WCMESH).
func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sims in -short mode")
	}
	perSys := map[string]Fig8Row{}
	for _, r := range NewEvaluation(QuickBudget()).Figure8(traffic.Uniform) {
		perSys[r.SystemName] = r
		t.Logf("fig8 %-8s thr=%.5f f/n/c  E/pkt=%.0f pJ  %s",
			r.SystemName, r.Throughput, r.EnergyPerPacketPJ, r.Power)
	}
	own := perSys["own"].EnergyPerPacketPJ
	optxb := perSys["optxb"].EnergyPerPacketPJ
	wc := perSys["wcmesh"].EnergyPerPacketPJ
	if !(own > optxb) {
		t.Errorf("OWN-1024 should consume more per packet than OptXB (paper +30%%): own=%v optxb=%v", own, optxb)
	}
	if !(own < wc*1.1) {
		t.Errorf("OWN-1024 should be at or below wireless-CMESH (paper -3%%): own=%v wcmesh=%v", own, wc)
	}
	// Throughput at the shared operating point varies little.
	var min, max float64
	for _, r := range perSys {
		if min == 0 || r.Throughput < min {
			min = r.Throughput
		}
		if r.Throughput > max {
			max = r.Throughput
		}
	}
	if max > min*1.3 {
		t.Errorf("1024-core throughput spread too large: min=%v max=%v", min, max)
	}
}

func TestNewSystemUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem("nope", 256, wireless.Config4, wireless.Ideal)
}

func TestSweepLoadsAxis(t *testing.T) {
	loads := SweepLoads(256, 5)
	if len(loads) != 5 {
		t.Fatal("wrong length")
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] <= loads[i-1] {
			t.Fatal("loads not increasing")
		}
	}
	if loads[4] < 1.1/128 {
		t.Fatal("sweep must cross saturation")
	}
}

// TestBadInputIsAnError pins the CLI validation: the inputs that used to
// end in a panic stack are plain errors, and every combination the CLIs
// accept still passes.
func TestBadInputIsAnError(t *testing.T) {
	for _, tc := range []struct {
		what string
		err  error
	}{
		{"ownsim -cores 300", CheckSystem("own", 300)},
		{"ownsim -topo foo", CheckSystem("foo", 256)},
		{"sweep -topo cmesh -cores 300", CheckSystem("cmesh", 300)},
		{"trace -cores 300 -run", CheckSystem("own", 300)},
		{"trace -topo mesh -run", CheckSystem("mesh", 256)},
		{"sweep -points 1", CheckSweepPoints(1)},
		{"sweep -points 0", CheckSweepPoints(0)},
		{"ownsim -measure 0", CheckRun(3000, 0, 0.004)},
		{"sweep -measure 0", CheckRun(3000, 0, SweepLoads(256, 2)[0])},
		{"ownsim -load -1", CheckRun(3000, 1000, -1)},
		{"ownsim -load 0", CheckRun(3000, 1000, 0)},
		{"ownsim -load NaN", CheckRun(3000, 1000, math.NaN())},
		{"ownsim -load +Inf", CheckRun(3000, 1000, math.Inf(1))},
		{"ownsim -load 2", CheckRun(3000, 1000, 2)},
		{"ownsim -warmup 2^64-1 -measure 1", CheckRun(math.MaxUint64, 1, 0.004)},
		{"sweep -warmup 1 -measure 2^64-1", CheckRun(1, math.MaxUint64, SweepLoads(256, 2)[0])},
	} {
		if tc.err == nil {
			t.Errorf("%s: accepted, want an error", tc.what)
		}
	}
	for _, name := range SystemNames() {
		for _, cores := range []int{256, 1024} {
			if err := CheckSystem(name, cores); err != nil {
				t.Errorf("CheckSystem(%q, %d) = %v", name, cores, err)
			}
		}
	}
	if err := CheckSweepPoints(2); err != nil {
		t.Errorf("CheckSweepPoints(2) = %v", err)
	}
	// Extreme but legal: one measured cycle, a load whose every arrival
	// window is empty, one flit per terminal per cycle (128x capacity).
	for _, load := range []float64{1e-9, 0.004, 1} {
		if err := CheckRun(0, 1, load); err != nil {
			t.Errorf("CheckRun(0, 1, %v) = %v", load, err)
		}
	}
	// The last cycle a window can end on.
	if err := CheckRun(math.MaxUint64-1, 1, 0.004); err != nil {
		t.Errorf("CheckRun(2^64-2, 1, 0.004) = %v", err)
	}
}
