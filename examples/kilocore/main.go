// Kilocore: scale OWN to 1024 cores. Inter-group traffic rides SWMR
// wireless multicast channels — any cluster of the source group may
// transmit (a token rotates among the four transceivers) and all four
// clusters of the destination group receive, with only the addressed one
// forwarding. This example runs the paper's Figure 8 patterns and shows
// the per-class VC discipline and the SWMR receive-discard energy.
package main

import (
	"fmt"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func main() {
	fmt.Println("OWN-1024: 4 groups x 4 clusters x 16 tiles x 4 cores")
	fmt.Println("channel allocation (Table II):")
	for _, l := range wireless.OWN1024Links() {
		kind := "inter-group SWMR"
		if l.Intra() {
			kind = "intra-group"
		}
		fmt.Printf("  ch%-3d g%d -> g%d  antenna %s  %-16s class %s\n",
			l.ID, l.SrcGroup, l.DstGroup, l.Antenna, kind, l.Class)
	}

	// Build the network once; Run rewinds it before every later pattern,
	// so each reads what a fresh build would.
	load := 0.3 * topology.UniformSaturationLoad(1024)
	sys := core.NewSystem("own", 1024, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	for _, pat := range []traffic.Pattern{traffic.Uniform, traffic.BitReversal, traffic.Transpose} {
		res := n.Run(
			fabric.TrafficSpec{Pattern: pat, Rate: load, Seed: 99, Policy: sys.Policy, Classify: sys.Classify},
			fabric.RunSpec{Warmup: 1500, Measure: 6000},
		)
		fmt.Printf("\n%-13s %s\n", pat, res.Summary)
		fmt.Printf("%13s power %s\n", "", res.Power)
		fmt.Printf("%13s energy/packet %.0f pJ, drained=%v, max hops %d (bound 4)\n",
			"", core.EnergyPerPacketPJ(res, 1024), res.Drained, res.MaxHops)
	}
}
