// Command ownsim runs one cycle-accurate NoC simulation and prints its
// performance and power summary.
//
// Examples:
//
//	ownsim -topo own -cores 256 -pattern uniform -load 0.004
//	ownsim -topo cmesh -cores 1024 -pattern bitreversal -load 0.001 -measure 20000
//	ownsim -topo own -config 1 -scenario conservative
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/topology"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ownsim: ")

	var rf core.RunFlags
	rf.Register(flag.CommandLine, "own")
	load := flag.Float64("load", 0.5*topology.UniformSaturationLoad(256), "offered load in flits/node/cycle")
	config := flag.Int("config", 4, "OWN Table IV configuration (1-4)")
	scenario := flag.String("scenario", "ideal", "Table III scenario: ideal|conservative")
	reconfig := flag.Bool("reconfig", false, "bond the reserve channels (Table III links 13-16) onto the C2C links (OWN-256 only)")
	fail := flag.String("fail", "", "comma-separated OWN-256 wireless channel IDs to take out of service")
	var of obs.Flags
	of.Register(flag.CommandLine, "the run")
	flag.BoolVar(&of.PerComponent, "percomponent", false, "register per-router/per-source metrics in addition to aggregates")
	flag.Uint64Var(&of.Watchdog.StarveBudgetCy, "watchdog-starve", 0, "trip the watchdog when a writer waits more than this many cycles for a channel token (0 = off)")
	flag.IntVar(&of.Watchdog.StallWindows, "watchdog-stall", 0, "trip the watchdog after this many check windows without ejection progress while flits are in flight (0 = off)")
	flag.IntVar(&of.Watchdog.SatWindows, "watchdog-sat", 0, "trip the watchdog after this many consecutive check windows with a channel >=95% busy (0 = off)")
	flag.Uint64Var(&of.Watchdog.CheckEveryCy, "watchdog-every", flightrec.DefaultCheckEveryCy, "watchdog check window in simulated cycles")
	flag.DurationVar(&of.StallTimeout, "stall-timeout", 0, "dump goroutine stacks to stderr when the simulated cycle stops advancing for this long of wall time (0 = off)")
	flag.Parse()

	// A flag value no run can honour is one line and exit 2, before
	// anything is built.
	usage := func(err error) {
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}
	pat, _, err := rf.Validate(*load)
	usage(err)
	usage(of.Validate())
	scen := wireless.Ideal
	if *scenario == "conservative" {
		scen = wireless.Conservative
	} else if *scenario != "ideal" {
		usage(fmt.Errorf("unknown scenario %q", *scenario))
	}
	if *config < 1 || *config > 4 {
		usage(fmt.Errorf("config must be 1-4, got %d", *config))
	}

	var failedChannels []int
	if *fail != "" {
		for _, tok := range strings.Split(*fail, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				usage(fmt.Errorf("bad -fail entry %q: %v", tok, err))
			}
			failedChannels = append(failedChannels, id)
		}
	}

	sys := core.NewSystem(rf.Topo, rf.Cores, wireless.Config(*config), scen)
	if rf.Topo == "own" && rf.Cores == 256 && (*reconfig || len(failedChannels) > 0) {
		usage(core.CheckFailedChannels(failedChannels))
		// Rebuild with the OWN-256 extensions enabled.
		rc, fc := *reconfig, failedChannels
		sys.Build = func(m *power.Meter) *fabric.Network {
			return core.BuildOWN256(core.Params{
				Config: wireless.Config(*config), Scenario: scen,
				Meter: m, Reconfig: rc, FailedChannels: fc,
			})
		}
	} else if *reconfig || len(failedChannels) > 0 {
		usage(errors.New("-reconfig and -fail apply only to -topo own -cores 256"))
	}
	fmt.Printf("topology=%s cores=%d pattern=%s load=%.5f f/n/c (uniform capacity %.5f)\n",
		rf.Topo, rf.Cores, pat, *load, topology.UniformSaturationLoad(rf.Cores))

	n := sys.Build(power.NewMeter(nil))
	s, err := obs.Start(n, &of, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if of.Dot != "" {
		fmt.Printf("wrote topology graph to %s\n", of.Dot)
	}
	res := n.Run(
		fabric.TrafficSpec{Pattern: pat, Rate: *load, Seed: rf.Seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: rf.Warmup, Measure: rf.Measure, ReservoirCap: of.Reservoir},
	)
	s.Finish()

	fmt.Printf("\nperformance: %s\n", res.Summary)
	if !res.Drained {
		fmt.Println("  WARNING: measured packets did not drain — operating beyond saturation")
	}
	fmt.Printf("power:       %s\n", res.Power)
	if res.AvgWirelessChannelMW > 0 {
		fmt.Printf("wireless:    %.3f mW average per channel (Figure 5 metric)\n", res.AvgWirelessChannelMW)
	}
	fmt.Printf("energy/pkt:  %.0f pJ\n", core.EnergyPerPacketPJ(res, rf.Cores))

	var man *probe.Manifest
	if of.Manifest != "" {
		sum := res.Summary
		man = &probe.Manifest{
			Tool: "ownsim",
			Config: map[string]string{
				"topo":            rf.Topo,
				"cores":           strconv.Itoa(rf.Cores),
				"pattern":         pat.String(),
				"load":            strconv.FormatFloat(*load, 'g', -1, 64),
				"config":          strconv.Itoa(*config),
				"scenario":        *scenario,
				"warmup":          strconv.FormatUint(rf.Warmup, 10),
				"measure":         strconv.FormatUint(rf.Measure, 10),
				"reconfig":        strconv.FormatBool(*reconfig),
				"fail":            *fail,
				"sample":          strconv.FormatUint(of.Sample, 10),
				"window":          strconv.FormatUint(of.Window, 10),
				"reservoir":       strconv.Itoa(of.Reservoir),
				"watchdog_every":  strconv.FormatUint(of.Watchdog.CheckEveryCy, 10),
				"watchdog_starve": strconv.FormatUint(of.Watchdog.StarveBudgetCy, 10),
				"watchdog_stall":  strconv.Itoa(of.Watchdog.StallWindows),
				"watchdog_sat":    strconv.Itoa(of.Watchdog.SatWindows),
				"check":           strconv.FormatBool(of.Check),
			},
			Cores:   rf.Cores,
			Seed:    rf.Seed,
			Cycles:  n.Eng.Cycle(),
			Summary: &sum,
			Build:   probe.ReadBuildInfo(),
		}
	}
	if err := s.Emit(man, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if man != nil {
		if err := obs.WriteManifest(man, of.Manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("manifest:    %s\n", of.Manifest)
	}
	if of.Check {
		if v := s.Violations(); v > 0 {
			log.Fatalf("conformance: %d invariant violation(s) detected", v)
		}
		fmt.Printf("conformance: clean (%d events audited)\n", n.Checker.Events())
	}
}
