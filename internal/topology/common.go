// Package topology builds the paper's baseline architectures — CMESH,
// wireless-CMESH (WCube-style), the all-photonic crossbar OptXB
// (Corona-style) and the photonic Clos (p-Clos) — as fabric.Networks.
// The OWN architectures themselves live in internal/core.
//
// # Capacity equalization
//
// The paper states that "bisection bandwidth [is kept] the same for all
// the architectures by adding appropriate delay into the network". The
// anchor is OWN's wireless cut: eight 32 Gb/s channels cross OWN-256's
// bisection, i.e. 8 x (32 Gb/s / 128-bit flits / 2 GHz clock) = 1
// flit/cycle, giving a uniform-traffic saturation load of 2B/N = 1/128
// flits/node/cycle at 256 cores (and 1/512 at 1024 cores, where the
// anchor is the eight inter-group channels).
//
// Channel serialization factors below are chosen so every topology
// saturates at that same uniform load:
//
//	CMESH-256:  16 mesh links cross the cut  -> serialize 16 cy/flit
//	CMESH-1024: 32 links                     -> serialize 32
//	WCMESH:     wireless grid links at 32 Gb/s (8 cy/flit) cross 8-wide,
//	            matching the anchor with no extra delay
//	OptXB-256:  each tile's home channel carries all 4 cores' ejection
//	            traffic (4*lambda <= 1/s)    -> serialize 32
//	OptXB-1024:                              -> serialize 128
//	p-Clos:     per inter-stage link load 4*lambda -> serialize 32 / 128
//
// For the bus topologies the equalizer targets equal uniform saturation
// capacity rather than the raw cut width: a home channel carries every
// flit addressed to its tile, not only cut-crossing ones, so equalizing
// the raw cut would handicap the crossbar below the paper's reported
// "similar throughput". DESIGN.md §4 records this modeling decision.
package topology

import (
	"fmt"

	"ownsim/internal/power"
)

// Standard microarchitecture constants shared by all topologies (paper:
// 4 VCs per input port, 5-stage pipeline, 4-core concentration).
const (
	// NumVCs is the virtual channels per input port.
	NumVCs = 4
	// BufDepth is the per-VC buffer depth in flits.
	BufDepth = 4
	// Concentration is cores per router/tile.
	Concentration = 4
	// PktFlits is the default packet length.
	PktFlits = 5
	// FlitBits matches power.Params.FlitBits.
	FlitBits = 128
	// ClockGHz matches power.Params.ClockGHz.
	ClockGHz = 2.0
)

// WirelessCyPerFlit returns the serialization of one flit on a wireless
// channel of the given bandwidth in Gb/s (32 under the ideal scenario, 16
// under the conservative one): bits / (Gb/s / GHz) cycles.
func WirelessCyPerFlit(bwGbps float64) int {
	bitsPerCycle := bwGbps / ClockGHz
	cy := float64(FlitBits) / bitsPerCycle
	if cy < 1 {
		return 1
	}
	return int(cy + 0.5)
}

// EqualizedSerialize returns the per-flit link serialization for the
// given topology kind and core count, per the package comment.
func EqualizedSerialize(kind string, cores int) int {
	switch kind {
	case "cmesh":
		if cores <= 256 {
			return 16
		}
		return 32
	case "optxb", "pclos":
		if cores <= 256 {
			return 32
		}
		return 128
	case "wcmesh", "own":
		return 1 // wireless channels carry the equalization naturally
	}
	panic(fmt.Sprintf("topology: unknown kind %q", kind))
}

// UniformSaturationLoad returns the theoretical uniform-traffic saturation
// load (flits/node/cycle) shared by all equalized topologies at the given
// core count; sweeps use it to scale their load axes.
func UniformSaturationLoad(cores int) float64 {
	if cores <= 256 {
		return 1.0 / 128
	}
	return 1.0 / 512
}

// Params configures a topology build.
type Params struct {
	// Cores is the terminal count: 256 or 1024 in the paper.
	Cores int
	// Meter prices the network's event counts; nil disables accounting.
	Meter *power.Meter
	// WirelessBWGbps is the per-channel wireless bandwidth (32 ideal /
	// 16 conservative); used by wireless-CMESH. Zero means 32.
	WirelessBWGbps float64
	// BufDepth overrides the per-VC input buffer depth (the ablation
	// knob); zero means the paper-standard BufDepth.
	BufDepth int
}

// Depth returns the effective per-VC buffer depth.
func (p Params) Depth() int {
	if p.BufDepth > 0 {
		return p.BufDepth
	}
	return BufDepth
}

func (p Params) wirelessBW() float64 {
	if p.WirelessBWGbps <= 0 {
		return 32
	}
	return p.WirelessBWGbps
}

func (p Params) validate(name string) {
	if p.Cores != 256 && p.Cores != 1024 {
		panic(fmt.Sprintf("topology %s: cores must be 256 or 1024, got %d", name, p.Cores))
	}
}

// isqrt returns the exact integer square root, panicking on non-squares.
func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	if r*r != n {
		panic(fmt.Sprintf("topology: %d is not a perfect square", n))
	}
	return r
}
