// Command paper reproduces the paper's evaluation from the models and
// simulator in this repository: Tables I-IV and the photonic component
// inventory, the data behind Figures 3-8, and the pass/fail ledger of
// every tracked claim (the executable form of EXPERIMENTS.md). Items are
// positional and print in the order below whatever the argument order; one
// invocation plans one core.Evaluation, so the claims read the rows the
// figures simulated. The plan's census goes to stderr; a failed claim is
// exit 1.
//
//	table1 table2 table3 table4 inventory    (group: tables)
//	fig3 fig4 fig5 fig6 fig7a fig7bc fig8    (group: figures)
//	claims
//
// -out DIR also writes what results/ holds: each figure's CSVs, the
// ledger as claims.json and claims.md, and each selected group's text as
// tables.txt, figures_full.txt and experiments.txt.
//
// Examples:
//
//	paper                       # everything, full budget (~12 s on two cores)
//	paper -quick claims         # the ledger at the reduced budget
//	paper fig6                  # just the Figure 6 power comparison
//	paper -out results all      # regenerate results/ (make results)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/photonic"
	"ownsim/internal/report"
	"ownsim/internal/rf"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// printer is what an item prints with: the text of its group, the
// invocation's one evaluation, and the -out directory.
type printer struct {
	w   io.Writer
	e   *core.Evaluation
	out string // "" writes no file
	// err is the first file error; later writes are skipped.
	err error
	// failed is set by the ledger when a claim does not reproduce.
	failed bool
}

// items is every printable item in canonical order, grouped.
var items = []struct {
	key, group string
	fn         func(*printer)
}{
	{"table1", "tables", tableI}, {"table2", "tables", tableII}, {"table3", "tables", tableIII},
	{"table4", "tables", tableIV}, {"inventory", "tables", inventory},
	{"fig3", "figures", figure3}, {"fig4", "figures", figure4}, {"fig5", "figures", figure5},
	{"fig6", "figures", figure6}, {"fig7a", "figures", figure7a}, {"fig7bc", "figures", figure7bc},
	{"fig8", "figures", figure8},
	{"claims", "claims", claims},
}

// groups names the file that holds each group's text under -out.
var groups = []struct{ name, file string }{
	{"tables", "tables.txt"}, {"figures", "figures_full.txt"}, {"claims", "experiments.txt"},
}

// parseItems returns the selected item keys: an argument is an item, a
// group or all, and no argument is all.
func parseItems(args []string) (map[string]bool, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	sel := map[string]bool{}
	for _, arg := range args {
		known := false
		for _, it := range items {
			if arg == it.key || arg == it.group || arg == "all" {
				sel[it.key], known = true, true
			}
		}
		if !known {
			keys := make([]string, len(items))
			for i, it := range items {
				keys[i] = it.key
			}
			return nil, fmt.Errorf("unknown item %q (want %s, or tables figures all)", arg, strings.Join(keys, " "))
		}
	}
	return sel, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: paper [-quick] [-out DIR] [item ...]")
		fs.PrintDefaults()
	}
	quick := fs.Bool("quick", false, "use the reduced simulation budget")
	out := fs.String("out", "", "directory to also write the CSVs, the ledger and each group's text into, under the names results/ holds")
	if fs.Parse(args) != nil {
		return 2
	}
	sel, err := parseItems(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "paper:", err)
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "paper:", err)
			return 1
		}
	}
	b := core.FullBudget()
	if *quick {
		b = core.QuickBudget()
	}

	// One evaluation per invocation: 7b/7c are lookups after 7a, Figure
	// 6's OWN bars are Figure 5's, and every row a claim reads is a row a
	// figure simulated.
	p := &printer{e: core.NewEvaluation(b), out: *out}
	for _, g := range groups {
		var text bytes.Buffer
		p.w = io.MultiWriter(stdout, &text)
		for _, it := range items {
			if it.group != g.name || !sel[it.key] {
				continue
			}
			it.fn(p)
			if g.name != "claims" {
				fmt.Fprintln(p.w)
			}
		}
		if text.Len() > 0 {
			p.writeFile(g.file, text.Bytes())
		}
	}
	fmt.Fprintln(stderr, p.e.Census())
	if p.err != nil {
		fmt.Fprintln(stderr, "paper:", p.err)
		return 1
	}
	if p.failed {
		return 1
	}
	return 0
}

// writeFile writes name under -out.
func (p *printer) writeFile(name string, data []byte) {
	if p.out == "" || p.err != nil {
		return
	}
	p.err = os.WriteFile(filepath.Join(p.out, name), data, 0o644)
}

func (p *printer) writeCSV(name string, lines []string) {
	if p.out == "" {
		return
	}
	p.writeFile(name, []byte(strings.Join(lines, "\n")+"\n"))
	fmt.Fprintf(p.w, "[wrote %s]\n", filepath.Join(p.out, name))
}

func (p *printer) printf(format string, args ...any) { fmt.Fprintf(p.w, format, args...) }

// header prints title underlined with rule.
func (p *printer) header(title, rule string) {
	p.printf("%s\n%s\n", title, strings.Repeat(rule, len(title)))
}

func tableI(p *printer) {
	p.header("Table I — OWN-256 wireless channel allocation", "-")
	p.printf("%-4s %-10s %-6s %-6s %-6s %-10s %-6s\n", "ch", "clusters", "tx", "rx", "class", "dist (mm)", "LD")
	for _, l := range wireless.OWN256Links() {
		p.printf("%-4d %d -> %-5d %-6s %-6s %-6s %-10.0f %-6.2f\n",
			l.ID, l.SrcCluster, l.DstCluster, l.TxAntenna, l.RxAntenna,
			l.Class, l.Class.NominalMM(), l.Class.LDFactor())
	}
}

func tableII(p *printer) {
	p.header("Table II — OWN-1024 wireless channels (SWMR inter-group + intra-group)", "-")
	p.printf("%-4s %-10s %-8s %-7s %-6s\n", "ch", "groups", "antenna", "kind", "class")
	for _, l := range wireless.OWN1024Links() {
		kind := "inter"
		if l.Intra() {
			kind = "intra"
		}
		p.printf("%-4d %d -> %-6d %-8s %-7s %-6s\n", l.ID, l.SrcGroup, l.DstGroup, l.Antenna, kind, l.Class)
	}
}

func tableIII(p *printer) {
	p.header("Table III — 16-band plan (reconstructed; see DESIGN.md)", "-")
	for _, s := range []wireless.Scenario{wireless.Ideal, wireless.Conservative} {
		p.printf("\nscenario %s: %g GHz bands, %g GHz isolation, %g Gb/s per channel\n",
			s, s.BWGHz(), s.IsolationGHz(), s.BWGbps())
		p.printf("%-5s %-10s %-8s %-10s\n", "band", "f (GHz)", "tech", "pJ/bit")
		for _, b := range wireless.BandPlan(s) {
			p.printf("%-5d %-10.0f %-8s %-10.2f\n", b.Index+1, b.CenterGHz, b.Tech, b.EPBpJ(s))
		}
	}
}

func tableIV(p *printer) {
	p.header("Table IV — configurations and resulting channel plans (OWN-256)", "-")
	for _, cfg := range wireless.AllConfigs() {
		p.printf("\n%s: C2C=%s E2E=%s SR=%s\n", cfg,
			cfg.TechFor(wireless.C2C), cfg.TechFor(wireless.E2E), cfg.TechFor(wireless.SR))
		for _, s := range []wireless.Scenario{wireless.Ideal, wireless.Conservative} {
			plan := wireless.PlanOWN256(cfg, s)
			sdm := 0
			for _, ch := range plan.Channels {
				if ch.SDMShared {
					sdm++
				}
			}
			p.printf("  %-13s mean %.3f pJ/bit, %d SDM-shared channels\n", s, plan.MeanEPBpJ(), sdm)
		}
	}
}

func inventory(p *printer) {
	p.header("Photonic component inventory (paper §I scalability argument)", "-")
	rows := []struct {
		label string
		inv   photonic.Inventory
	}{
		{"SWMR 64x64", photonic.SWMRInventory(64)},
		{"SWMR 1024x1024", photonic.SWMRInventory(1024)},
		{"MWSR OptXB-64 (256 cores)", photonic.MWSRInventory(64)},
		{"MWSR OptXB-256 (1024 cores)", photonic.MWSRInventory(256)},
		{"OWN-256 (4 x 16-tile MWSR)", photonic.MWSRInventory(16).Scale(4)},
		{"OWN-1024 (16 x 16-tile MWSR)", photonic.MWSRInventory(16).Scale(16)},
	}
	p.printf("%-30s %12s %12s %12s %12s\n", "organization", "modulators", "detectors", "waveguides", "rings")
	for _, r := range rows {
		p.printf("%-30s %12d %12d %12d %12d\n", r.label,
			r.inv.Modulators, r.inv.Photodetectors, r.inv.Waveguides, r.inv.Rings)
	}
}

func figure3(p *printer) {
	p.header("Figure 3 — OOK link budget @ 32 Gb/s, 90 GHz", "=")
	lb := rf.DefaultLinkBudget()
	pts := rf.Figure3(lb, []rf.Decibels{0, 5, 10})
	lines := []string{"dist_mm,directivity_dbi,required_dbm"}
	p.printf("%-9s %-12s %-12s\n", "dist(mm)", "directivity", "required dBm")
	for _, pt := range pts {
		p.printf("%-9.0f %-12.0f %-12.2f\n", pt.DistMM, pt.DirectivityDB, pt.RequiredDBm)
		lines = append(lines, fmt.Sprintf("%.0f,%.0f,%.3f", pt.DistMM, pt.DirectivityDB, pt.RequiredDBm))
	}
	p.printf("\npaper anchor: >= 4 dBm at 50 mm isotropic -> model gives %.2f dBm\n",
		lb.RequiredTxDBm(50, 90, 32, 0))
	p.writeCSV("fig3_linkbudget.csv", lines)
}

func figure4(p *printer) {
	p.header("Figure 4 — 65 nm OOK transceiver blocks", "=")
	osc := rf.DefaultOscillator()
	p.printf("(a) Colpitts oscillator @ %g GHz\n", osc.CenterGHz)
	p.printf("    analytic phase noise  @1MHz: %.1f dBc/Hz (paper: ~-86)\n", osc.PhaseNoiseDBc(1e6))
	p.printf("    simulated (Welch PSD) @1MHz: %.1f dBc/Hz\n", osc.MeasurePhaseNoise(1e6, 42))

	pa := rf.DefaultPA()
	p.printf("(b) class-AB PA: peak gain %.1f dB @ %g GHz, %.0f GHz BW above 2 dB\n",
		pa.GainDB, pa.CenterGHz, pa.BandwidthGHz(2))
	p.printf("    output P1dB %.2f dBm (paper: ~5), Psat %.2f dBm, DC %.0f mW\n",
		pa.P1dBOutDBm(90), pa.PsatDBm, pa.DCPowerMW)
	lines := []string{"pin_dbm,pout_dbm,linear_dbm"}
	for pin := -30.0; pin <= 15; pin += 1 {
		lines = append(lines, fmt.Sprintf("%.1f,%.3f,%.3f", pin, pa.OutputDBm(pin, 90), pin+pa.GainDB))
	}
	p.writeCSV("fig4b_pa_compression.csv", lines)

	lna := rf.DefaultLNA()
	p.printf("(c) LNA: gain %.1f dB @ %g GHz (paper: 10 dB wideband)\n", lna.GainDB, lna.CenterGHz)
	lines = []string{"freq_ghz,lna_gain_db,pa_gain_db"}
	for f := 70.0; f <= 110; f += 2 {
		lines = append(lines, fmt.Sprintf("%.0f,%.3f,%.3f", f, lna.GainAtDB(f), pa.SmallSignalGainDB(f)))
	}
	p.writeCSV("fig4c_gains.csv", lines)

	tr := rf.DefaultTransceiver()
	p.printf("    chain: %.1f mW total, %.2f pJ/bit at %g Gb/s\n",
		tr.TotalPowerMW(), tr.EnergyPerBitPJ(), tr.RateGbps)
}

func figure5(p *printer) {
	p.header("Figure 5 — average wireless link power (OWN-256, uniform random)", "=")
	rows := p.e.Figure5()
	lines := []string{"scenario,config,avg_channel_mw,plan_pj_per_bit"}
	p.printf("%-14s %-9s %-16s %-14s\n", "scenario", "config", "avg chan (mW)", "plan pJ/bit")
	for _, r := range rows {
		p.printf("%-14s %-9s %-16.4f %-14.3f\n", r.Scenario, r.Config, r.AvgChannelMW, r.PlanMeanEPBpJ)
		lines = append(lines, fmt.Sprintf("%s,%s,%.5f,%.4f", r.Scenario, r.Config, r.AvgChannelMW, r.PlanMeanEPBpJ))
	}
	p.writeCSV("fig5_wireless_power.csv", lines)
}

func figure6(p *printer) {
	p.header("Figure 6 — power breakdown at 256 cores (uniform, half saturation)", "=")
	rows := p.e.Figure6()
	lines := []string{"system,router_dyn_mw,router_static_mw,elec_mw,photonic_mw,wireless_mw,total_mw"}
	p.printf("%-13s %9s %9s %9s %9s %9s %9s\n",
		"system", "rtr dyn", "rtr stat", "elec", "photonic", "wireless", "TOTAL")
	for _, r := range rows {
		pw := r.Power
		p.printf("%-13s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			r.Label, pw.RouterDynMW, pw.RouterStaticMW, pw.ElecLinkMW, pw.PhotonicMW, pw.WirelessMW, pw.TotalMW())
		lines = append(lines, fmt.Sprintf("%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f",
			r.Label, pw.RouterDynMW, pw.RouterStaticMW, pw.ElecLinkMW, pw.PhotonicMW, pw.WirelessMW, pw.TotalMW()))
	}
	p.writeCSV("fig6_power_breakdown.csv", lines)
}

func figure7a(p *printer) {
	p.header("Figure 7a — saturation throughput per pattern (256 cores)", "=")
	rows := p.e.Figure7a()
	lines := []string{"pattern,system,throughput_fnc"}
	p.printf("%-13s %-9s %s\n", "pattern", "system", "thr (f/n/c)")
	for _, r := range rows {
		p.printf("%-13s %-9s %.5f\n", r.Pattern, r.SystemName, r.Throughput)
		lines = append(lines, fmt.Sprintf("%s,%s,%.6f", r.Pattern, r.SystemName, r.Throughput))
	}
	p.writeCSV("fig7a_throughput.csv", lines)
}

func figure7bc(p *printer) {
	for _, pc := range []struct {
		fig string
		pat traffic.Pattern
	}{{"7b", traffic.Uniform}, {"7c", traffic.BitReversal}} {
		p.header(fmt.Sprintf("Figure %s — latency vs load, %s traffic (256 cores)", pc.fig, pc.pat), "=")
		series := p.e.Figure7bc(pc.pat)
		lines := []string{"system,load_fnc,latency_cy,throughput_fnc,saturated"}
		for _, s := range series {
			p.printf("%-9s capacity knee %.5f f/n/c, zero-load %.1f cy\n",
				s.SystemName, s.CapacityLoad, s.Points[0].Latency)
			for _, pt := range s.Points {
				lines = append(lines, fmt.Sprintf("%s,%.6f,%.2f,%.6f,%v",
					s.SystemName, pt.Load, pt.Latency, pt.Throughput, pt.Saturated))
			}
		}
		p.writeCSV(fmt.Sprintf("fig%s_latency.csv", pc.fig), lines)
		p.printf("\n")
	}
}

func figure8(p *printer) {
	p.header("Figure 8 — 1024 cores: throughput and energy per packet", "=")
	rows := p.e.Figure8(traffic.Uniform, traffic.BitReversal, traffic.Transpose)
	lines := []string{"system,pattern,throughput_fnc,energy_per_packet_pj,total_mw"}
	p.printf("%-9s %-13s %-12s %-14s %-10s\n", "system", "pattern", "thr (f/n/c)", "E/packet (pJ)", "total mW")
	for _, r := range rows {
		p.printf("%-9s %-13s %-12.5f %-14.0f %-10.1f\n",
			r.SystemName, r.Pattern, r.Throughput, r.EnergyPerPacketPJ, r.Power.TotalMW())
		lines = append(lines, fmt.Sprintf("%s,%s,%.6f,%.1f,%.2f",
			r.SystemName, r.Pattern, r.Throughput, r.EnergyPerPacketPJ, r.Power.TotalMW()))
	}
	p.writeCSV("fig8_kilocore.csv", lines)
}

// claims scores every tracked claim on the invocation's evaluation.
func claims(p *printer) {
	rep := report.Score(p.e, time.Now())
	for _, c := range rep.Claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		p.printf("%-4s %-32s %s\n", verdict, c.ID, c.Measured)
	}
	p.printf("\n%d/%d claims reproduced\n", rep.Passed(), len(rep.Claims))
	p.failed = rep.Passed() < len(rep.Claims)

	data, err := rep.JSON()
	if p.err == nil {
		p.err = err
	}
	p.writeFile("claims.json", data)
	p.writeFile("claims.md", []byte(rep.Markdown()))
}
