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
	"flag"
	"fmt"
	"log"
	"os"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")

	workload := flag.String("workload", "stencil", "workload: stencil|allreduce")
	cores := flag.Int("cores", 256, "core count: 256 or 1024")
	iters := flag.Int("iters", 6, "stencil iterations / all-reduce rounds (0 = full)")
	period := flag.Uint64("period", 400, "cycles between iterations")
	seed := flag.Uint64("seed", 1, "jitter seed")
	run := flag.Bool("run", false, "replay the trace instead of printing it")
	topo := flag.String("topo", "own", "replay topology: all|own|cmesh|wcmesh|optxb|pclos")
	budget := flag.Uint64("budget", 200000, "replay cycle budget")
	flag.Parse()

	names := core.SystemNames()
	if *topo != "all" {
		names = []string{*topo}
	}
	for _, name := range names {
		if err := core.CheckSystem(name, *cores); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}

	var tr *traffic.Trace
	switch *workload {
	case "stencil":
		tr = traffic.StencilTrace(*cores, *iters, *period, *seed)
	case "allreduce":
		tr = traffic.AllReduceTrace(*cores, *iters, *period)
	default:
		log.Fatalf("unknown workload %q", *workload)
	}

	if !*run {
		fmt.Println("cycle,src,dst")
		for _, e := range tr.Entries {
			fmt.Printf("%d,%d,%d\n", e.Cycle, e.Src, e.Dst)
		}
		return
	}

	fmt.Printf("workload=%s packets=%d cores=%d\n\n", *workload, len(tr.Entries), *cores)
	fmt.Printf("%-8s %-10s %-9s %-10s %-12s %-12s\n",
		"topology", "completed", "cycles", "avgLat", "maxLat", "E/pkt (pJ)")
	for _, name := range names {
		sys := core.NewSystem(name, *cores, wireless.Config4, wireless.Ideal)
		n := sys.Build(power.NewMeter(nil))
		res := n.RunTrace(tr, 5, fabric.TrafficSpec{Policy: sys.Policy, Classify: sys.Classify}, *budget)
		epkt := 0.0
		if res.Packets > 0 {
			epkt = float64(res.Power.TotalMW()) * float64(n.Eng.Cycle()) * 0.5 / float64(res.Packets)
		}
		fmt.Printf("%-8s %-10v %-9d %-10.1f %-12d %-12.0f\n",
			name, res.Drained, n.Eng.Cycle(), res.AvgLatency, res.MaxLatency, epkt)
	}
}
