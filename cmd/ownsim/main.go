// Command ownsim runs one cycle-accurate NoC simulation and prints its
// performance and power summary. -out DIR also writes the run's record:
// every observability artifact under a fixed name, then manifest.json
// (README lists the files).
//
// Examples:
//
//	ownsim -topo own -cores 256 -pattern uniform -load 0.004
//	ownsim -topo cmesh -cores 1024 -pattern bitreversal -load 0.001 -measure 20000
//	ownsim -topo own -config 1 -scenario conservative
//	ownsim -cores 256 -measure 2000 -out run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/topology"
	"ownsim/internal/wireless"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "ownsim: ", 0)
	fs := flag.NewFlagSet("ownsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var rf core.RunFlags
	rf.Register(fs, "own")
	load := fs.Float64("load", 0.5*topology.UniformSaturationLoad(256), "offered load in flits/node/cycle")
	config := fs.Int("config", 4, "OWN Table IV configuration (1-4)")
	scenario := fs.String("scenario", "ideal", "Table III scenario: ideal|conservative")
	reconfig := fs.Bool("reconfig", false, "bond the reserve channels (Table III links 13-16) onto the C2C links (OWN-256 only)")
	fail := fs.String("fail", "", "comma-separated OWN-256 wireless channel IDs to take out of service")
	var of obs.Flags
	of.Register(fs, "the run")
	fs.Uint64Var(&of.Watchdog, "watchdog", 0, "trip the watchdog when a channel writer has waited for its token, or the network has ejected nothing while flits are in flight, for more than this many cycles (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A flag value no run can honour is one line and exit 2, before
	// anything is built.
	usage := func(err error) int {
		lg.Print(err)
		return 2
	}
	pat, _, err := rf.Validate(*load)
	if err != nil {
		return usage(err)
	}
	scen := wireless.Ideal
	if *scenario == "conservative" {
		scen = wireless.Conservative
	} else if *scenario != "ideal" {
		return usage(fmt.Errorf("unknown scenario %q", *scenario))
	}
	if *config < 1 || *config > 4 {
		return usage(fmt.Errorf("config must be 1-4, got %d", *config))
	}
	var failed []int
	if *fail != "" {
		for _, tok := range strings.Split(*fail, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return usage(fmt.Errorf("bad -fail entry %q: %v", tok, err))
			}
			failed = append(failed, id)
		}
	}
	if *reconfig || len(failed) > 0 {
		if rf.Topo != "own" || rf.Cores != 256 {
			return usage(errors.New("-reconfig and -fail apply only to -topo own -cores 256"))
		}
		if err := core.CheckFailedChannels(failed); err != nil {
			return usage(err)
		}
	}
	man, err := of.OpenRecord("ownsim", rf.Cores, rf.Seed, map[string]string{
		"topo":     rf.Topo,
		"cores":    strconv.Itoa(rf.Cores),
		"pattern":  pat.String(),
		"load":     strconv.FormatFloat(*load, 'g', -1, 64),
		"config":   strconv.Itoa(*config),
		"scenario": *scenario,
		"warmup":   strconv.FormatUint(rf.Warmup, 10),
		"measure":  strconv.FormatUint(rf.Measure, 10),
		"reconfig": strconv.FormatBool(*reconfig),
		"fail":     *fail,
		"watchdog": strconv.FormatUint(of.Watchdog, 10),
	})
	if err != nil {
		lg.Print(err)
		return 1
	}

	sys := core.NewSystem(rf.Topo, rf.Cores, wireless.Config(*config), scen)
	if *reconfig || len(failed) > 0 {
		// Rebuild with the OWN-256 extensions enabled.
		sys.Build = func(m *power.Meter) *fabric.Network {
			return core.BuildOWN256(core.Params{
				Config: wireless.Config(*config), Scenario: scen,
				Meter: m, Reconfig: *reconfig, FailedChannels: failed,
			})
		}
	}
	fmt.Fprintf(stdout, "topology=%s cores=%d pattern=%s load=%.5f f/n/c (uniform capacity %.5f)\n",
		rf.Topo, rf.Cores, pat, *load, topology.UniformSaturationLoad(rf.Cores))

	n := sys.Build(power.NewMeter(nil))
	s, err := obs.Start(n, &of, lg.Printf)
	if err != nil {
		lg.Print(err)
		return 1
	}
	res := n.Run(
		fabric.TrafficSpec{Pattern: pat, Rate: *load, Seed: rf.Seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: rf.Warmup, Measure: rf.Measure},
	)
	s.Finish()

	fmt.Fprintf(stdout, "\nperformance: %s\n", res.Summary)
	switch {
	case res.Saturated():
		fmt.Fprintf(stdout, "  saturated: accepted %.5f of %.5f f/n/c offered (%.0f %%); %d measured packets in flight; no latency reported\n",
			res.Throughput, res.Offered, 100*res.Throughput/res.Offered, n.Collector.Pending())
	case !res.Drained:
		fmt.Fprintln(stdout, "  WARNING: measured packets did not drain — operating beyond saturation")
	}
	fmt.Fprintf(stdout, "power:       %s\n", res.Power)
	if res.AvgWirelessChannelMW > 0 {
		fmt.Fprintf(stdout, "wireless:    %.3f mW average per channel (Figure 5 metric)\n", res.AvgWirelessChannelMW)
	}
	fmt.Fprintf(stdout, "energy/pkt:  %.0f pJ\n", core.EnergyPerPacketPJ(res, rf.Cores))

	if man != nil {
		sum := res.Summary
		man.Cycles, man.Summary = n.Eng.Cycle(), &sum
	}
	if err := s.Emit(man, stdout); err != nil {
		lg.Print(err)
		return 1
	}
	if of.Check {
		if v := s.Violations(); v > 0 {
			lg.Printf("conformance: %d invariant violation(s) detected", v)
			return 1
		}
		fmt.Fprintf(stdout, "conformance: clean (%d events audited)\n", n.Checker.Events())
	}
	return 0
}
