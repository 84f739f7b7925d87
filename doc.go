// Package ownsim is a from-scratch reproduction of "Scalable
// Power-Efficient Kilo-Core Photonic-Wireless NoC Architectures" (Kodi,
// Shiflett, Kaya, Laha, Louri — IEEE IPDPS 2018): the OWN hybrid
// photonic-wireless network-on-chip for 256 and 1024 cores, the four
// baseline architectures it is evaluated against (CMESH, wireless-CMESH,
// the OptXB photonic crossbar and the photonic Clos), a cycle-accurate
// flit-level simulator with DSENT-class power accounting, the Table III
// wireless band plan and Table IV technology configurations, and the
// Section IV RF feasibility models (link budget, oscillator, PA, LNA).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// modeling decisions, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/paper regenerates each table and figure; bench/ (its own module)
// is the benchmark.
package ownsim
