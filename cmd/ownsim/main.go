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
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/obs"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ownsim: ")

	topo := flag.String("topo", "own", "topology: own|cmesh|wcmesh|optxb|pclos")
	cores := flag.Int("cores", 256, "core count: 256 or 1024")
	pattern := flag.String("pattern", "uniform", "traffic: uniform|bitreversal|transpose|shuffle|neighbor|hotspot")
	load := flag.Float64("load", 0.5*topology.UniformSaturationLoad(256), "offered load in flits/node/cycle")
	config := flag.Int("config", 4, "OWN Table IV configuration (1-4)")
	scenario := flag.String("scenario", "ideal", "Table III scenario: ideal|conservative")
	warmup := flag.Uint64("warmup", 3000, "warmup cycles")
	measure := flag.Uint64("measure", 12000, "measurement cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	reconfig := flag.Bool("reconfig", false, "bond the reserve channels (Table III links 13-16) onto the C2C links (OWN-256 only)")
	fail := flag.String("fail", "", "comma-separated OWN-256 wireless channel IDs to take out of service")
	telemetry := flag.Int("telemetry", 0, "print the top-N busiest shared channels after the run")
	dot := flag.String("dot", "", "write the router-level topology as Graphviz DOT to this path")
	metrics := flag.String("metrics", "", "write the sampled metric time-series to this path (.csv or .ndjson)")
	trace := flag.String("trace", "", "write the per-packet lifecycle trace to this path (.json Chrome trace-event, or .ndjson)")
	sample := flag.Uint64("sample", 1, "trace every Nth packet (with -trace; 1 = all)")
	window := flag.Uint64("window", 256, "metric sampling window in simulated cycles (with -metrics)")
	percomp := flag.Bool("percomponent", false, "register per-router/per-source metrics in addition to aggregates")
	manifest := flag.String("manifest", "", "write a machine-readable run manifest (JSON) to this path")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /events) on this address during the run (e.g. :9090; port 0 picks a free port)")
	energyPath := flag.String("energy", "", "write the per-component energy attribution to this path (CSV) and print the breakdown table")
	heatmap := flag.String("heatmap", "", "write congestion and wireless-energy heatmaps (CSV+SVG) with this path prefix (implies -percomponent)")
	breakdown := flag.String("latency-breakdown", "", "write the per-phase latency attribution (CSV+NDJSON+stacked-bar SVG) with this path prefix")
	pprofFlag := flag.Bool("pprof", false, "mount Go runtime profiling under /debug/pprof/ on the -listen server")
	reservoir := flag.Int("reservoir", 0, "exact-percentile latency reservoir size in packets (0 = default 65536)")
	fairness := flag.String("fairness", "", "write token-fairness artifacts (per-tile wait CSV, per-channel Jain CSV, heatmap SVG) with this path prefix")
	dumpOnExit := flag.String("dump-on-exit", "", "write a full state dump (NDJSON + text) with this path prefix after the run")
	wdStarve := flag.Uint64("watchdog-starve", 0, "trip the watchdog when a writer waits more than this many cycles for a channel token (0 = off)")
	wdStall := flag.Int("watchdog-stall", 0, "trip the watchdog after this many check windows without ejection progress while flits are in flight (0 = off)")
	wdSat := flag.Int("watchdog-sat", 0, "trip the watchdog after this many consecutive check windows with a channel >=95% busy (0 = off)")
	wdEvery := flag.Uint64("watchdog-every", flightrec.DefaultCheckEveryCy, "watchdog check window in simulated cycles")
	stallTimeout := flag.Duration("stall-timeout", 0, "dump goroutine stacks to stderr when the simulated cycle stops advancing for this long of wall time (0 = off)")
	checkFlag := flag.Bool("check", false, "install the conformance checker (internal/check): audit protocol invariants during the run, dump state on the first violation and exit non-zero if any fired")
	flag.Parse()

	pat, err := traffic.ParsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	scen := wireless.Ideal
	if *scenario == "conservative" {
		scen = wireless.Conservative
	} else if *scenario != "ideal" {
		log.Fatalf("unknown scenario %q", *scenario)
	}
	if *config < 1 || *config > 4 {
		log.Fatalf("config must be 1-4, got %d", *config)
	}

	var failedChannels []int
	if *fail != "" {
		for _, tok := range strings.Split(*fail, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				log.Fatalf("bad -fail entry %q: %v", tok, err)
			}
			failedChannels = append(failedChannels, id)
		}
	}

	sys := core.NewSystem(*topo, *cores, wireless.Config(*config), scen)
	if *topo == "own" && *cores == 256 && (*reconfig || len(failedChannels) > 0) {
		// Rebuild with the OWN-256 extensions enabled.
		rc, fc := *reconfig, failedChannels
		sys.Build = func(m *power.Meter) *fabric.Network {
			return core.BuildOWN256(core.Params{
				Config: wireless.Config(*config), Scenario: scen,
				Meter: m, Reconfig: rc, FailedChannels: fc,
			})
		}
	} else if *reconfig || len(failedChannels) > 0 {
		log.Fatal("-reconfig and -fail apply only to -topo own -cores 256")
	}
	fmt.Printf("topology=%s cores=%d pattern=%s load=%.5f f/n/c (uniform capacity %.5f)\n",
		*topo, *cores, pat, *load, topology.UniformSaturationLoad(*cores))

	m := power.NewMeter(nil)
	n := sys.Build(m)
	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(n.DOT()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote topology graph to %s\n", *dot)
	}
	if *pprofFlag && *listen == "" {
		log.Fatal("-pprof requires -listen")
	}
	// The flight recorder backs the fairness/dump artifacts, the watchdog
	// detectors and the /debug/dump endpoint; like the probe it is inert.
	flightrecOn := *fairness != "" || *dumpOnExit != "" || *listen != "" ||
		*wdStarve > 0 || *wdStall > 0 || *wdSat > 0 || *stallTimeout > 0
	var fr *flightrec.FlightRecorder
	if flightrecOn {
		fr = flightrec.New(flightrec.Options{Watchdog: flightrec.WatchdogConfig{
			CheckEveryCy:   *wdEvery,
			StarveBudgetCy: *wdStarve,
			StallWindows:   *wdStall,
			SatWindows:     *wdSat,
		}})
		fr.Dog.OnTrip = func(reason string, snap *flightrec.Snapshot) {
			fmt.Fprintf(os.Stderr, "ownsim: WATCHDOG TRIP: %s\n", reason)
			if err := snap.WriteText(os.Stderr); err != nil {
				log.Printf("watchdog dump failed: %v", err)
			}
		}
		n.InstallFlightRecorder(fr)
	}
	var pb *probe.Probe
	if *metrics != "" || *trace != "" || *heatmap != "" || *breakdown != "" || flightrecOn {
		if *sample == 0 {
			log.Fatal("-sample must be >= 1")
		}
		// Heatmaps need per-router counters to resolve congestion per tile;
		// fairness and dumps need span decomposition for token waits and
		// in-flight packet phases.
		opts := probe.Options{
			PerComponent: *percomp || *heatmap != "",
			Spans:        *breakdown != "" || *fairness != "" || *dumpOnExit != "",
		}
		if *metrics != "" || *listen != "" || flightrecOn {
			if *window == 0 {
				log.Fatal("-window must be >= 1")
			}
			opts.MetricsEvery = *window
		}
		if *trace != "" {
			opts.TraceEvery = *sample
		}
		pb = probe.New(opts)
		n.InstallProbe(pb)
	}
	// The live telemetry plane is read-only: it observes sampler snapshots
	// over HTTP and feeds nothing back, so results and artifacts are
	// byte-identical with or without it. Its address is deliberately kept
	// out of the manifest (ephemeral ports would break reproducibility).
	var srv *obs.Server
	if *listen != "" {
		srv = obs.New()
		srv.Attach(pb)
		if *pprofFlag {
			srv.EnablePprof()
		}
		srv.SetBuildInfo(probe.ReadBuildInfo())
		if fr != nil {
			srv.SetDumpProvider(fr.Dog.RequestDump)
		}
		addr, err := srv.Start(*listen)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ownsim: live telemetry on http://%s/metrics\n", addr)
	}
	if *stallTimeout > 0 {
		timeout := *stallTimeout
		stop := fr.Dog.StartWall(timeout, func(cycle uint64, stacks []byte) {
			fmt.Fprintf(os.Stderr, "ownsim: no cycle progress for %s at cycle %d; goroutine stacks:\n%s", timeout, cycle, stacks)
		})
		defer stop()
	}
	// The conformance checker audits protocol invariants as one more
	// subscriber of the component taps, so it composes with the probe and
	// flight recorder; like them it never perturbs the Result.
	var ck *check.Checker
	if *checkFlag {
		ck = check.New()
		n.InstallChecker(ck, func(v check.Violation, snap *flightrec.Snapshot) {
			fmt.Fprintf(os.Stderr, "ownsim: INVARIANT VIOLATION: %s\n", v)
			if snap != nil {
				if err := snap.WriteText(os.Stderr); err != nil {
					log.Printf("violation dump failed: %v", err)
				}
			}
		})
	}
	res := n.Run(
		fabric.TrafficSpec{Pattern: pat, Rate: *load, Seed: *seed, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: *warmup, Measure: *measure, ReservoirCap: *reservoir},
	)
	if ck != nil {
		// Close the run with a final structural audit.
		if err := n.CheckInvariants(); err != nil {
			ck.Report(n.Eng.Cycle(), check.RuleState, n.Name, err.Error())
		}
	}
	if fr != nil {
		fr.Dog.Finish(n.Eng.Cycle())
	}
	if srv != nil {
		srv.MarkDone()
	}

	fmt.Printf("\nperformance: %s\n", res.Summary)
	if !res.Drained {
		fmt.Println("  WARNING: measured packets did not drain — operating beyond saturation")
	}
	fmt.Printf("power:       %s\n", res.Power)
	if res.AvgWirelessChannelMW > 0 {
		fmt.Printf("wireless:    %.3f mW average per channel (Figure 5 metric)\n", res.AvgWirelessChannelMW)
	}
	fmt.Printf("energy/pkt:  %.0f pJ\n", core.EnergyPerPacketPJ(res, *cores))
	if *telemetry > 0 {
		fmt.Println()
		fmt.Print(n.Telemetry(*telemetry))
	}
	if *energyPath != "" {
		fmt.Println()
		fmt.Print(m.EnergyTable(n.Eng.Cycle()))
	}

	var man *probe.Manifest
	if *manifest != "" {
		sum := res.Summary
		man = &probe.Manifest{
			Tool: "ownsim",
			Config: map[string]string{
				"topo":            *topo,
				"cores":           strconv.Itoa(*cores),
				"pattern":         pat.String(),
				"load":            strconv.FormatFloat(*load, 'g', -1, 64),
				"config":          strconv.Itoa(*config),
				"scenario":        *scenario,
				"warmup":          strconv.FormatUint(*warmup, 10),
				"measure":         strconv.FormatUint(*measure, 10),
				"reconfig":        strconv.FormatBool(*reconfig),
				"fail":            *fail,
				"sample":          strconv.FormatUint(*sample, 10),
				"window":          strconv.FormatUint(*window, 10),
				"reservoir":       strconv.Itoa(*reservoir),
				"watchdog_every":  strconv.FormatUint(*wdEvery, 10),
				"watchdog_starve": strconv.FormatUint(*wdStarve, 10),
				"watchdog_stall":  strconv.Itoa(*wdStall),
				"watchdog_sat":    strconv.Itoa(*wdSat),
				"check":           strconv.FormatBool(*checkFlag),
			},
			Cores:   *cores,
			Seed:    *seed,
			Cycles:  n.Eng.Cycle(),
			Summary: &sum,
		}
		ei, pi := n.EngineIntro(), n.PoolIntro()
		man.Engine, man.Pools = &ei, &pi
		man.Build = probe.ReadBuildInfo()
	}
	if pb != nil {
		if err := probe.EmitFiles(pb, *metrics, *trace, man); err != nil {
			log.Fatal(err)
		}
		if *metrics != "" {
			fmt.Printf("metrics:     %d samples x %d metrics -> %s\n", pb.Sampler().Rows(), pb.Registry().Len(), *metrics)
		}
		if t := pb.Tracer(); t != nil {
			fmt.Printf("trace:       %d events -> %s\n", t.Len(), *trace)
			if t.Dropped() > 0 {
				fmt.Printf("  WARNING: %d trace events dropped at the %d-event cap; raise -sample\n", t.Dropped(), probe.DefaultMaxTraceEvents)
			}
		}
	}
	if *energyPath != "" {
		if err := obs.EmitEnergyCSV(n, *energyPath, man); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("energy:      %s\n", *energyPath)
	}
	if *heatmap != "" {
		files, err := obs.EmitHeatmaps(n, *heatmap, man)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heatmaps:    %s\n", strings.Join(files, ", "))
	}
	if *breakdown != "" {
		files, err := obs.EmitLatencyBreakdown(n, *breakdown, man)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("breakdown:   %s\n", strings.Join(files, ", "))
		if mm := pb.Spans().Mismatches(); mm > 0 {
			fmt.Printf("  WARNING: %d packets failed the span sum identity\n", mm)
		}
	}
	if *fairness != "" {
		files, err := obs.EmitFairness(n, *fairness, man)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fairness:    %s\n", strings.Join(files, ", "))
	}
	if *dumpOnExit != "" {
		files, err := obs.EmitDump(n, *dumpOnExit, man)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dump:        %s\n", strings.Join(files, ", "))
	}
	if fr != nil && fr.Dog.Trips() > 0 {
		fmt.Printf("  WARNING: watchdog tripped %d time(s); first: %s\n",
			fr.Dog.Trips(), fr.Dog.TripReasons()[0])
	}
	if man != nil {
		if err := probe.WriteManifestFile(man, *manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("manifest:    %s\n", *manifest)
	}
	if ck != nil {
		if ck.Total() > 0 {
			log.Fatalf("conformance: %d invariant violation(s) detected", ck.Total())
		}
		fmt.Printf("conformance: clean (%d events audited)\n", ck.Events())
	}
}
