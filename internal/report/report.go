// Package report runs the paper's full evaluation and checks every
// tracked qualitative claim against the simulation, producing a
// machine-readable ledger (the automated form of EXPERIMENTS.md). The
// calibration tests in internal/core assert a subset of these claims;
// this package exists so a user can regenerate the verdicts with one
// command and archive them as JSON.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/rf"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
)

// Claim is one verdict of the ledger.
type Claim struct {
	// ID names the claim, e.g. "fig6/optxb-least".
	ID string `json:"id"`
	// Paper is the paper's statement.
	Paper string `json:"paper"`
	// Measured is the simulation's finding.
	Measured string `json:"measured"`
	// Pass reports whether the claim reproduces.
	Pass bool `json:"pass"`
}

// Report is the full ledger.
type Report struct {
	GeneratedAt time.Time `json:"generated_at"`
	Budget      string    `json:"budget"`
	Claims      []Claim   `json:"claims"`
	// Census is what the evaluation's plan did (core.Evaluation.Census);
	// it is kept out of JSON() and Markdown().
	Census core.Census `json:"-"`
}

// Passed counts reproduced claims.
func (r Report) Passed() int {
	n := 0
	for _, c := range r.Claims {
		if c.Pass {
			n++
		}
	}
	return n
}

// JSON renders the ledger machine-readably.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Markdown renders the ledger as a table.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Claim ledger — %d/%d reproduced\n\n", r.Passed(), len(r.Claims))
	fmt.Fprintf(&b, "Generated %s, budget %s.\n\n", r.GeneratedAt.Format(time.RFC3339), r.Budget)
	b.WriteString("| claim | paper | measured | verdict |\n|---|---|---|---|\n")
	for _, c := range r.Claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.ID, c.Paper, c.Measured, verdict)
	}
	return b.String()
}

// Evaluate runs the evaluation at the given budget and scores the
// claims. It is deterministic for a fixed budget. Each call plans its own
// core.Evaluation: every claim simulates only the rows it reads, and
// nothing survives the call.
func Evaluate(b core.Budget, now time.Time) Report {
	return Score(core.NewEvaluation(b), now)
}

// uniform is the one pattern the Figure 7b and Figure 8 claims read.
var uniform = []traffic.Pattern{traffic.Uniform}

// Views are the rows the claims read: Figures 5 and 6 whole, and the
// uniform rows of Figures 7b and 8.
func Views() []core.View {
	return []core.View{{Figure: 5}, {Figure: 6}, {Figure: 7, Patterns: uniform}, {Figure: 8, Patterns: uniform}}
}

// Score plans Views on e as one pool, simulating only the rows e does not
// hold, and scores the claims on them: after the figures ran on e
// (cmd/paper) the ledger adds served runs and no simulation. Census is e's
// count so far.
func Score(e *core.Evaluation, now time.Time) Report {
	e.Plan(Views()...)
	b := e.Budget()
	r := Report{
		GeneratedAt: now,
		Budget:      fmt.Sprintf("warmup=%d measure=%d loads=%d seed=%d", b.Warmup, b.Measure, b.Loads, b.Seed),
	}
	r.Claims = slices.Concat(rfClaims(), fig5Claims(e), fig6Claims(e), fig7Claims(e), fig8Claims(e))
	r.Census = e.Census()
	return r
}

func claim(id, paper string, pass bool, measuredFmt string, args ...any) Claim {
	return Claim{ID: id, Paper: paper, Measured: fmt.Sprintf(measuredFmt, args...), Pass: pass}
}

func rfClaims() []Claim {
	lb := rf.DefaultLinkBudget()
	req := lb.RequiredTxDBm(50, 90, 32, 0)
	pa := rf.DefaultPA()
	p1 := pa.P1dBOutDBm(90)
	bw := pa.BandwidthGHz(2)
	osc := rf.DefaultOscillator()
	pn := osc.MeasurePhaseNoise(1e6, 42)
	return []Claim{
		claim("fig3/tx-power-50mm", ">= 4 dBm at 50 mm isotropic", req >= 4 && req <= 7, "%.2f dBm", req),
		claim("fig3/pa-covers-budget", "PA's 7 dBm covers the requirement", rf.DBm(pa.PsatDBm) >= req, "Psat %.2f dBm vs %.2f needed", pa.PsatDBm, req),
		claim("fig4a/phase-noise", "~-86 dBc/Hz at 1 MHz", pn > -92 && pn < -80, "%.1f dBc/Hz (simulated PSD)", pn),
		claim("fig4b/p1db", "P1dB ~5 dBm", p1 > 4.5 && p1 < 5.5, "%.2f dBm", p1),
		claim("fig4b/bandwidth", "~20 GHz above 2 dB gain", bw > 18 && bw < 22, "%.1f GHz", bw),
		claim("fig4c/lna-gain", "10 dB wideband LNA", stats.ApproxEqual(rf.DefaultLNA().GainAtDB(90), 10, 1e-9), "%.1f dB at 90 GHz", rf.DefaultLNA().GainAtDB(90)),
	}
}

func fig5Claims(e *core.Evaluation) []Claim {
	rows := e.Figure5()
	byKey := map[string]float64{}
	for _, row := range rows {
		byKey[row.Scenario.String()+"/"+row.Config.String()] = row.AvgChannelMW
	}
	var out []Claim
	for _, scen := range []string{"ideal", "conservative"} {
		c1, c2, c3, c4 := byKey[scen+"/config1"], byKey[scen+"/config2"], byKey[scen+"/config3"], byKey[scen+"/config4"]
		out = append(out,
			claim("fig5/"+scen+"/ordering", "SiGe-long configs 1,3 cost most; 4 least",
				c3 >= c1*0.8 && c1 > c2 && c2 > c4,
				"c1=%.2f c2=%.2f c3=%.2f c4=%.2f mW", c1, c2, c3, c4),
			claim("fig5/"+scen+"/config4-saving", "config 4 saves 57-80% vs config 1",
				1-c4/c1 > 0.55 && 1-c4/c1 < 0.90, "%.0f%%", (1-c4/c1)*100),
		)
	}
	return out
}

func fig6Claims(e *core.Evaluation) []Claim {
	rows := e.Figure6()
	total := map[string]float64{}
	for _, row := range rows {
		total[row.Label] = float64(row.Power.TotalMW())
	}
	optxb, own4, cm, wc, pc := total["optxb"], total["own-config4"], total["cmesh"], total["wcmesh"], total["pclos"]
	return []Claim{
		claim("fig6/optxb-least", "OptXB consumes the least power",
			optxb < own4 && optxb < cm && optxb < wc && optxb < pc,
			"optxb %.0f mW vs own4 %.0f, pclos %.0f, wcmesh %.0f, cmesh %.0f", optxb, own4, pc, wc, cm),
		claim("fig6/own-vs-optxb", "OWN-config4 'almost 2X of OptXB'",
			own4/optxb > 1.3 && own4/optxb < 3.0, "%.2fx", own4/optxb),
		claim("fig6/cmesh-most", "CMESH consumes the most; >30% above OWN",
			cm > wc && cm > pc && cm > own4*1.15, "cmesh/own4 = %.2fx", cm/own4),
		claim("fig6/wcmesh-above-own", "wireless-CMESH a few % above OWN",
			wc > own4 && wc < own4*1.35, "%.2fx", wc/own4),
		claim("fig6/configs-track-fig5", "OWN configs 1,3 above config 4",
			total["own-config1"] > own4 && total["own-config3"] > own4,
			"c1 %.0f, c3 %.0f vs c4 %.0f mW", total["own-config1"], total["own-config3"], own4),
	}
}

func fig7Claims(e *core.Evaluation) []Claim {
	series := e.Figure7bc(uniform...)
	cap := map[string]float64{}
	zl := map[string]float64{}
	for _, s := range series {
		cap[s.SystemName] = s.CapacityLoad
		zl[s.SystemName] = s.Points[0].Latency
	}
	return []Claim{
		claim("fig7b/own-saturates-last", "OWN saturates at the highest load",
			cap["own"] >= cap["cmesh"] && cap["own"] >= cap["optxb"] && cap["own"] >= cap["wcmesh"] && cap["own"] >= cap["pclos"],
			"own %.4f vs cmesh %.4f, optxb %.4f, pclos %.4f, wcmesh %.4f f/n/c",
			cap["own"], cap["cmesh"], cap["optxb"], cap["pclos"], cap["wcmesh"]),
		claim("fig7b/own-latency-advantage", "OWN latency 20-50% better than CMESH",
			zl["own"] < zl["cmesh"]*0.8, "zero-load %.0f vs %.0f cycles (%.0f%% lower)",
			zl["own"], zl["cmesh"], (1-zl["own"]/zl["cmesh"])*100),
	}
}

// fig8Claims reads Figure 8's uniform rows only, so only they are simulated.
func fig8Claims(e *core.Evaluation) []Claim {
	epkt := map[string]float64{}
	thrMin, thrMax := math.Inf(1), 0.0
	for _, row := range e.Figure8(uniform...) {
		epkt[row.SystemName] = row.EnergyPerPacketPJ
		if row.Throughput < thrMin {
			thrMin = row.Throughput
		}
		if row.Throughput > thrMax {
			thrMax = row.Throughput
		}
	}
	return []Claim{
		claim("fig8a/throughput-flat", "throughput variation not significant at 1024 cores",
			thrMax <= thrMin*1.3, "spread %.0f%%", (thrMax/thrMin-1)*100),
		claim("fig8b/own-above-optxb", "OWN ~30% more power than OptXB at 1024",
			epkt["own"] > epkt["optxb"] && epkt["own"] < epkt["optxb"]*1.6,
			"+%.0f%%", (epkt["own"]/epkt["optxb"]-1)*100),
		claim("fig8b/wcmesh-wireless-heavy", "OWN at or below wireless-CMESH per packet",
			epkt["own"] < epkt["wcmesh"]*1.1, "own %.0f vs wcmesh %.0f pJ/pkt", epkt["own"], epkt["wcmesh"]),
	}
}
