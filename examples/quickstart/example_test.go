package main

// Example runs the quickstart as a test: the printed summary is the
// simulation's, so a change that moves a digit of it fails here.
func Example() {
	main()
	// Output:
	// built own256-config4-ideal: 64 routers, 256 cores
	//
	// offered 0.00391 flits/node/cycle -> pkts=1560 avgLat=70.8 p50=70 p95=133 p99=177 maxLat=325 avgHops=3.42 thr=0.0038 f/n/c
	// drained: true (max 4 router hops; the paper's bound is 4)
	// power:   total 718.41 mW (router dyn 31.74, router static 48.37, elec 0.00, photonic 617.51, wireless 20.78)
	// average wireless channel power: 1.732 mW
}
