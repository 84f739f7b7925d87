// Command figures regenerates the data behind every figure in the
// paper's evaluation (Figures 3-8) from the models and simulator in this
// repository. Output is aligned text on stdout; -csv additionally writes
// machine-readable files into the given directory.
//
// Examples:
//
//	figures             # everything, full budget (minutes)
//	figures -quick      # everything, reduced budget (tens of seconds)
//	figures -fig 6      # just the Figure 6 power comparison
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ownsim/internal/core"
	"ownsim/internal/rf"
	"ownsim/internal/traffic"
)

var csvDir string

// figKeys is what -fig accepts: every key of figs, and all.
const figKeys = "3|4|5|6|7a|7bc|8|all"

var figs = []struct {
	key string
	fn  func(*core.Evaluation)
}{
	{"3", figure3}, {"4", figure4}, {"5", figure5},
	{"6", figure6}, {"7a", figure7a}, {"7bc", figure7bc}, {"8", figure8},
}

func knownFig(fig string) bool { return slices.Contains(strings.Split(figKeys, "|"), fig) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	fig := flag.String("fig", "all", "figure to regenerate: "+figKeys)
	quick := flag.Bool("quick", false, "use the reduced simulation budget")
	flag.StringVar(&csvDir, "csv", "", "directory to write CSV files into (optional)")
	flag.Parse()
	if !knownFig(*fig) {
		log.Printf("unknown figure %q (want %s)", *fig, figKeys)
		os.Exit(2)
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	b := core.FullBudget()
	if *quick {
		b = core.QuickBudget()
	}

	// One evaluation per invocation: 7b/7c are lookups after 7a, and
	// Figure 6's OWN bars are Figure 5's.
	e := core.NewEvaluation(b)
	for _, f := range figs {
		if *fig == "all" || *fig == f.key {
			f.fn(e)
			fmt.Println()
		}
	}
	fmt.Fprintln(os.Stderr, e.Census())
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func writeCSV(name string, lines []string) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[wrote %s]\n", path)
}

func figure3(*core.Evaluation) {
	header("Figure 3 — OOK link budget @ 32 Gb/s, 90 GHz")
	lb := rf.DefaultLinkBudget()
	pts := rf.Figure3(lb, []rf.Decibels{0, 5, 10})
	lines := []string{"dist_mm,directivity_dbi,required_dbm"}
	fmt.Printf("%-9s %-12s %-12s\n", "dist(mm)", "directivity", "required dBm")
	for _, p := range pts {
		fmt.Printf("%-9.0f %-12.0f %-12.2f\n", p.DistMM, p.DirectivityDB, p.RequiredDBm)
		lines = append(lines, fmt.Sprintf("%.0f,%.0f,%.3f", p.DistMM, p.DirectivityDB, p.RequiredDBm))
	}
	fmt.Printf("\npaper anchor: >= 4 dBm at 50 mm isotropic -> model gives %.2f dBm\n",
		lb.RequiredTxDBm(50, 90, 32, 0))
	writeCSV("fig3_linkbudget.csv", lines)
}

func figure4(*core.Evaluation) {
	header("Figure 4 — 65 nm OOK transceiver blocks")
	osc := rf.DefaultOscillator()
	fmt.Printf("(a) Colpitts oscillator @ %g GHz\n", osc.CenterGHz)
	fmt.Printf("    analytic phase noise  @1MHz: %.1f dBc/Hz (paper: ~-86)\n", osc.PhaseNoiseDBc(1e6))
	fmt.Printf("    simulated (Welch PSD) @1MHz: %.1f dBc/Hz\n", osc.MeasurePhaseNoise(1e6, 42))

	pa := rf.DefaultPA()
	fmt.Printf("(b) class-AB PA: peak gain %.1f dB @ %g GHz, %.0f GHz BW above 2 dB\n",
		pa.GainDB, pa.CenterGHz, pa.BandwidthGHz(2))
	fmt.Printf("    output P1dB %.2f dBm (paper: ~5), Psat %.2f dBm, DC %.0f mW\n",
		pa.P1dBOutDBm(90), pa.PsatDBm, pa.DCPowerMW)
	lines := []string{"pin_dbm,pout_dbm,linear_dbm"}
	for pin := -30.0; pin <= 15; pin += 1 {
		lines = append(lines, fmt.Sprintf("%.1f,%.3f,%.3f", pin, pa.OutputDBm(pin, 90), pin+pa.GainDB))
	}
	writeCSV("fig4b_pa_compression.csv", lines)

	lna := rf.DefaultLNA()
	fmt.Printf("(c) LNA: gain %.1f dB @ %g GHz (paper: 10 dB wideband)\n", lna.GainDB, lna.CenterGHz)
	lines = []string{"freq_ghz,lna_gain_db,pa_gain_db"}
	for f := 70.0; f <= 110; f += 2 {
		lines = append(lines, fmt.Sprintf("%.0f,%.3f,%.3f", f, lna.GainAtDB(f), pa.SmallSignalGainDB(f)))
	}
	writeCSV("fig4c_gains.csv", lines)

	tr := rf.DefaultTransceiver()
	fmt.Printf("    chain: %.1f mW total, %.2f pJ/bit at %g Gb/s\n",
		tr.TotalPowerMW(), tr.EnergyPerBitPJ(), tr.RateGbps)
}

func figure5(e *core.Evaluation) {
	header("Figure 5 — average wireless link power (OWN-256, uniform random)")
	rows := e.Figure5()
	lines := []string{"scenario,config,avg_channel_mw,plan_pj_per_bit"}
	fmt.Printf("%-14s %-9s %-16s %-14s\n", "scenario", "config", "avg chan (mW)", "plan pJ/bit")
	for _, r := range rows {
		fmt.Printf("%-14s %-9s %-16.4f %-14.3f\n", r.Scenario, r.Config, r.AvgChannelMW, r.PlanMeanEPBpJ)
		lines = append(lines, fmt.Sprintf("%s,%s,%.5f,%.4f", r.Scenario, r.Config, r.AvgChannelMW, r.PlanMeanEPBpJ))
	}
	writeCSV("fig5_wireless_power.csv", lines)
}

func figure6(e *core.Evaluation) {
	header("Figure 6 — power breakdown at 256 cores (uniform, half saturation)")
	rows := e.Figure6()
	lines := []string{"system,router_dyn_mw,router_static_mw,elec_mw,photonic_mw,wireless_mw,total_mw"}
	fmt.Printf("%-13s %9s %9s %9s %9s %9s %9s\n",
		"system", "rtr dyn", "rtr stat", "elec", "photonic", "wireless", "TOTAL")
	for _, r := range rows {
		p := r.Power
		fmt.Printf("%-13s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			r.Label, p.RouterDynMW, p.RouterStaticMW, p.ElecLinkMW, p.PhotonicMW, p.WirelessMW, p.TotalMW())
		lines = append(lines, fmt.Sprintf("%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f",
			r.Label, p.RouterDynMW, p.RouterStaticMW, p.ElecLinkMW, p.PhotonicMW, p.WirelessMW, p.TotalMW()))
	}
	writeCSV("fig6_power_breakdown.csv", lines)
}

func figure7a(e *core.Evaluation) {
	header("Figure 7a — saturation throughput per pattern (256 cores)")
	rows := e.Figure7a()
	lines := []string{"pattern,system,throughput_fnc"}
	fmt.Printf("%-13s %-9s %s\n", "pattern", "system", "thr (f/n/c)")
	for _, r := range rows {
		fmt.Printf("%-13s %-9s %.5f\n", r.Pattern, r.SystemName, r.Throughput)
		lines = append(lines, fmt.Sprintf("%s,%s,%.6f", r.Pattern, r.SystemName, r.Throughput))
	}
	writeCSV("fig7a_throughput.csv", lines)
}

func figure7bc(e *core.Evaluation) {
	for _, pc := range []struct {
		fig string
		pat traffic.Pattern
	}{{"7b", traffic.Uniform}, {"7c", traffic.BitReversal}} {
		header(fmt.Sprintf("Figure %s — latency vs load, %s traffic (256 cores)", pc.fig, pc.pat))
		series := e.Figure7bc(pc.pat)
		lines := []string{"system,load_fnc,latency_cy,throughput_fnc,saturated"}
		for _, s := range series {
			fmt.Printf("%-9s capacity knee %.5f f/n/c, zero-load %.1f cy\n",
				s.SystemName, s.CapacityLoad, s.Points[0].Latency)
			for _, p := range s.Points {
				lines = append(lines, fmt.Sprintf("%s,%.6f,%.2f,%.6f,%v",
					s.SystemName, p.Load, p.Latency, p.Throughput, p.Saturated))
			}
		}
		writeCSV(fmt.Sprintf("fig%s_latency.csv", pc.fig), lines)
		fmt.Println()
	}
}

func figure8(e *core.Evaluation) {
	header("Figure 8 — 1024 cores: throughput and energy per packet")
	rows := e.Figure8(traffic.Uniform, traffic.BitReversal, traffic.Transpose)
	lines := []string{"system,pattern,throughput_fnc,energy_per_packet_pj,total_mw"}
	fmt.Printf("%-9s %-13s %-12s %-14s %-10s\n", "system", "pattern", "thr (f/n/c)", "E/packet (pJ)", "total mW")
	for _, r := range rows {
		fmt.Printf("%-9s %-13s %-12.5f %-14.0f %-10.1f\n",
			r.SystemName, r.Pattern, r.Throughput, r.EnergyPerPacketPJ, r.Power.TotalMW())
		lines = append(lines, fmt.Sprintf("%s,%s,%.6f,%.1f,%.2f",
			r.SystemName, r.Pattern, r.Throughput, r.EnergyPerPacketPJ, r.Power.TotalMW()))
	}
	writeCSV("fig8_kilocore.csv", lines)
}
