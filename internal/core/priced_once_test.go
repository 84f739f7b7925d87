package core

import (
	"math"
	"sync/atomic"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// Figures 5 and 6 simulate each traffic once and price it under the four
// Table IV configurations. The reference here is what they did before: one
// fresh simulation per configuration (the old function bodies, kept as the
// oracle). The priced-once rows must agree with it to 1e-12 relative — the
// last digits differ only because a network built under configuration 1
// and re-priced to 4 multiplies the same counts by the same constants — and
// everything that is not a price must agree exactly.

// countingSystems wraps NewSystem so every network a figure builds is
// counted at the build closure, independently of Evaluation.Census.
func countingSystems(builds *atomic.Int64) systemFunc {
	return func(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System {
		sys := NewSystem(name, cores, cfg, scen)
		build := sys.Build
		sys.Build = func(m *power.Meter) *fabric.Network {
			builds.Add(1)
			return build(m)
		}
		return sys
	}
}

// perConfigRun is the old Figure5/Figure6 job: a fresh OWN-256 simulation
// under one configuration.
func perConfigRun(cfg wireless.Config, scen wireless.Scenario, b Budget) fabric.Result {
	return NewSystem("own", 256, cfg, scen).Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: midLoad(256, scen), Seed: b.Seed},
		fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
	)
}

func relClose(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }

func powerClose(a, b power.Breakdown) bool {
	return a.Cycles == b.Cycles && a.RouterStaticMW == b.RouterStaticMW &&
		relClose(float64(a.RouterDynMW), float64(b.RouterDynMW)) &&
		relClose(float64(a.ElecLinkMW), float64(b.ElecLinkMW)) &&
		relClose(float64(a.PhotonicMW), float64(b.PhotonicMW)) &&
		relClose(float64(a.WirelessMW), float64(b.WirelessMW))
}

func TestFigure5PricedOnceMatchesPerConfigRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ten OWN-256 sims in -short mode")
	}
	b := QuickBudget()
	var builds atomic.Int64
	e := newEvaluation(b, countingSystems(&builds))
	rows := e.Figure5()
	if c := e.Census(); builds.Load() != 2 || c != (Census{Simulated: 2, Built: 2}) {
		t.Fatalf("Figure5 built %d networks, %v; want 2 runs on 2 (one per scenario)", builds.Load(), c)
	}
	if len(rows) != 8 {
		t.Fatalf("Figure5 returned %d rows, want 8", len(rows))
	}
	i := 0
	for _, scen := range []wireless.Scenario{wireless.Ideal, wireless.Conservative} {
		var first fabric.Result
		for _, cfg := range wireless.AllConfigs() {
			row, ref := rows[i], perConfigRun(cfg, scen, b)
			i++
			if row.Scenario != scen || row.Config != cfg {
				t.Fatalf("row %d is %v/%v, want %v/%v: row order changed", i-1, row.Scenario, row.Config, scen, cfg)
			}
			if !relClose(row.AvgChannelMW, ref.AvgWirelessChannelMW) || ref.AvgWirelessChannelMW == 0 {
				t.Errorf("%v/%v: priced once %v mW, simulated afresh %v mW", scen, cfg, row.AvgChannelMW, ref.AvgWirelessChannelMW)
			}
			if row.PlanMeanEPBpJ != wireless.PlanOWN256(cfg, scen).MeanEPBpJ() {
				t.Errorf("%v/%v: plan mean EPB %v", scen, cfg, row.PlanMeanEPBpJ)
			}
			// Why pricing once is sound: a configuration cannot move a flit.
			if cfg == wireless.Config1 {
				first = ref
				if !ref.Drained {
					t.Errorf("%v: OWN-256 did not drain at the Figure 5 load %v", scen, midLoad(256, scen))
				}
			} else if ref.Summary != first.Summary || ref.Drained != first.Drained || ref.Power.Cycles != first.Power.Cycles {
				t.Errorf("%v: %v simulated differently from config1:\n%+v\n%+v", scen, cfg, ref.Summary, first.Summary)
			}
		}
	}
}

func TestFigure6PricedOnceMatchesPerConfigRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("thirteen 256-core sims in -short mode")
	}
	b := QuickBudget()
	var builds atomic.Int64
	e := newEvaluation(b, countingSystems(&builds))
	rows := e.Figure6()
	if c := e.Census(); builds.Load() != 5 || c != (Census{Simulated: 5, Built: 5}) {
		t.Fatalf("Figure6 built %d networks, %v; want 5 runs on 5 (OWN once, four baselines)", builds.Load(), c)
	}
	labels := []string{"own-config1", "own-config2", "own-config3", "own-config4", "wcmesh", "optxb", "pclos", "cmesh"}
	if len(rows) != len(labels) {
		t.Fatalf("Figure6 returned %d rows, want %d", len(rows), len(labels))
	}
	for i, cfg := range wireless.AllConfigs() {
		row, ref := rows[i], perConfigRun(cfg, wireless.Ideal, b)
		if row.Label != labels[i] {
			t.Fatalf("row %d is %q, want %q: row order changed", i, row.Label, labels[i])
		}
		if row.Result.Summary != ref.Summary || row.Result.Drained != ref.Drained {
			t.Errorf("%s: summary differs from a fresh simulation:\n%+v\n%+v", row.Label, row.Result.Summary, ref.Summary)
		}
		if !powerClose(row.Power, ref.Power) || row.Power != row.Result.Power ||
			!relClose(row.Result.AvgWirelessChannelMW, ref.AvgWirelessChannelMW) {
			t.Errorf("%s: priced once %+v (avg %v), simulated afresh %+v (avg %v)",
				row.Label, row.Power, row.Result.AvgWirelessChannelMW, ref.Power, ref.AvgWirelessChannelMW)
		}
	}
	// The baselines are still one fresh run each, exactly as before.
	for i := 4; i < len(labels); i++ {
		ref := NewSystem(labels[i], 256, wireless.Config4, wireless.Ideal).Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: midLoad(256, wireless.Ideal), Seed: b.Seed},
			fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
		)
		if rows[i].Label != labels[i] || rows[i].Result != ref || rows[i].Power != ref.Power {
			t.Errorf("row %d (%s) differs from a fresh %s run", i, rows[i].Label, labels[i])
		}
	}
}

// TestRepricingRoundTrip: pricing is a function of the counts and the
// table, so configuration 1 -> 4 -> 1 returns the first numbers bit for
// bit, and each step equals what ownPerConfig reported for it.
func TestRepricingRoundTrip(t *testing.T) {
	b := QuickBudget()
	sys := NewSystem("own", 256, wireless.Config1, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: midLoad(256, wireless.Ideal), Seed: b.Seed, Policy: sys.Policy},
		fabric.RunSpec{Warmup: b.Warmup, Measure: b.Measure},
	)
	price := func(cfg wireless.Config) fabric.Result {
		plan := wireless.PlanOWN256(cfg, wireless.Ideal)
		epb := make([]float64, len(plan.Channels))
		for id, ch := range plan.Channels {
			epb[id] = ch.EPBpJ
		}
		n.Meter.PriceWireless(epb)
		return n.Priced(res)
	}
	c1, c4, again := price(wireless.Config1), price(wireless.Config4), price(wireless.Config1)
	if c1 != res {
		t.Fatalf("pricing a config1 build under config1's own table moved it:\n%+v\n%+v", c1.Power, res.Power)
	}
	if again != c1 {
		t.Fatalf("pricing 1 -> 4 -> 1:\n got %+v avg %v\nwant %+v avg %v", again.Power, again.AvgWirelessChannelMW, c1.Power, c1.AvgWirelessChannelMW)
	}
	if !(c4.Power.WirelessMW < c1.Power.WirelessMW) || c4.Summary != c1.Summary || c4.Power.PhotonicMW != c1.Power.PhotonicMW {
		t.Fatalf("config4 must change the wireless price and nothing else:\n%+v\n%+v", c4.Power, c1.Power)
	}
	per := NewEvaluation(b).ownPerConfig(wireless.Ideal, midLoad(256, wireless.Ideal))
	if per[0] != c1 || per[3] != c4 {
		t.Fatalf("ownPerConfig disagrees with pricing by hand:\n%+v\n%+v\n%+v\n%+v", per[0].Power, c1.Power, per[3].Power, c4.Power)
	}
	// All twelve Table I channels have ids, so nothing is unattributed.
	for _, r := range n.Meter.EnergyRows(n.Eng.Cycle()) {
		if r.Class == "unattributed" {
			t.Fatalf("OWN-256 run printed an unattributed row: %+v", r)
		}
	}
}
