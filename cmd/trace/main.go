// Command trace generates application-shaped workload traces (the
// paper's future-work "real workloads" path) and optionally replays them
// on a chosen architecture, reporting completion time, latency and
// energy.
//
// Examples:
//
//	trace -workload stencil -iters 6 > stencil.csv
//	trace -workload allreduce -run -topo own
//	trace -workload stencil -run -topo all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "trace: ", 0)
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "stencil", "workload: stencil|allreduce")
	cores := fs.Int("cores", 256, "core count: 256 or 1024")
	iters := fs.Int("iters", 6, "stencil iterations / all-reduce rounds (0 = full)")
	period := fs.Uint64("period", 400, "cycles between iterations")
	seed := fs.Uint64("seed", 1, "jitter seed")
	replay := fs.Bool("run", false, "replay the trace instead of printing it")
	topo := fs.String("topo", "own", "replay topology: all|own|cmesh|wcmesh|optxb|pclos")
	budget := fs.Uint64("budget", 200000, "replay cycle budget")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A flag value no trace or replay can honour is one line and exit 2,
	// before anything is built.
	usage := func(err error) int {
		lg.Print(err)
		return 2
	}
	names := core.SystemNames()
	if *topo != "all" {
		names = []string{*topo}
	}
	for _, name := range names {
		if err := core.CheckSystem(name, *cores); err != nil {
			return usage(err)
		}
	}
	if *budget < 1 {
		return usage(fmt.Errorf("budget must be >= 1 cycle, got %d", *budget))
	}
	if *period > traffic.MaxStencilPeriod {
		return usage(fmt.Errorf("period must be <= %d cycles, got %d", traffic.MaxStencilPeriod, *period))
	}
	var tr *traffic.Trace
	switch *workload {
	case "stencil":
		tr = traffic.StencilTrace(*cores, *iters, *period, *seed)
	case "allreduce":
		tr = traffic.AllReduceTrace(*cores, *iters, *period)
	default:
		return usage(fmt.Errorf("unknown workload %q (want stencil|allreduce)", *workload))
	}

	if !*replay {
		fmt.Fprintln(stdout, "cycle,src,dst")
		for _, e := range tr.Entries {
			fmt.Fprintf(stdout, "%d,%d,%d\n", e.Cycle, e.Src, e.Dst)
		}
		return 0
	}

	fmt.Fprintf(stdout, "workload=%s packets=%d cores=%d\n\n", *workload, len(tr.Entries), *cores)
	fmt.Fprintf(stdout, "%-8s %-10s %-9s %-10s %-12s %-12s\n",
		"topology", "completed", "cycles", "avgLat", "maxLat", "E/pkt (pJ)")
	for _, name := range names {
		sys := core.NewSystem(name, *cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		res := n.RunTrace(tr, 5, fabric.TrafficSpec{Policy: sys.Policy, Classify: sys.Classify}, *budget)
		epkt := 0.0
		if res.Packets > 0 {
			epkt = float64(res.Power.TotalMW()) * float64(n.Eng.Cycle()) * 0.5 / float64(res.Packets)
		}
		fmt.Fprintf(stdout, "%-8s %-10v %-9d %-10.1f %-12d %-12.0f\n",
			name, res.Drained, n.Eng.Cycle(), res.AvgLatency, res.MaxLatency, epkt)
	}
	return 0
}
