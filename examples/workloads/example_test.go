package main

// Example runs the workloads comparison as a test: completion cycles,
// latencies and energies are the simulation's, so a change that moves a
// digit of them fails here.
func Example() {
	main()
	// Output:
	// == stencil-5pt (6 iterations): 6144 packets ==
	//   own     completed=true in   3998 cycles  avgLat= 245.9  energy/pkt=  756 pJ
	//   cmesh   completed=true in  16604 cycles  avgLat=6239.9  energy/pkt= 1190 pJ
	//   optxb   completed=true in  11212 cycles  avgLat=3608.4  energy/pkt=  730 pJ
	//
	// == all-reduce (recursive doubling): 2048 packets ==
	//   own     completed=true in   4736 cycles  avgLat= 369.0  energy/pkt= 1058 pJ
	//   cmesh   completed=true in   3405 cycles  avgLat= 445.6  energy/pkt=  795 pJ
	//   optxb   completed=true in   4984 cycles  avgLat=1148.2  energy/pkt=  872 pJ
}
