// Quickstart: build the OWN-256 hybrid photonic-wireless NoC, offer it
// uniform random traffic at half of its saturation load, and print the
// performance and power summary.
package main

import (
	"fmt"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
)

func main() {
	// 1. Build the network. Defaults: Table IV configuration 4 (the
	//    paper's best) under the ideal Table III scenario.
	meter := power.NewMeter(nil)
	network := core.BuildOWN256(core.Params{Meter: meter})
	fmt.Printf("built %s: %d routers, %d cores\n",
		network.Name, len(network.Routers), network.NumCores)

	// 2. Offer uniform random traffic at half the equalized saturation
	//    load and simulate: 2k warmup cycles, 8k measured cycles, then
	//    drain.
	load := 0.5 * topology.UniformSaturationLoad(256)
	res := network.Run(
		fabric.TrafficSpec{
			Pattern: traffic.Uniform,
			Rate:    load,
			Seed:    42,
			Policy:  core.OWNPolicy,
		},
		fabric.RunSpec{Warmup: 2000, Measure: 8000},
	)

	// 3. Inspect the results.
	fmt.Printf("\noffered %.5f flits/node/cycle -> %s\n", load, res.Summary)
	fmt.Printf("drained: %v (max %d router hops; the paper's bound is 4)\n", res.Drained, res.MaxHops)
	fmt.Printf("power:   %s\n", res.Power)
	fmt.Printf("average wireless channel power: %.3f mW\n", res.AvgWirelessChannelMW)
}
