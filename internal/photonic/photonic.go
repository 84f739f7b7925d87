// Package photonic models the silicon-photonic interconnect substrate:
// MWSR (multiple-writer single-reader) waveguide crossbars with token
// arbitration as used inside each OWN cluster and by the OptXB baseline,
// plus the photonic component inventory (modulators, waveguides,
// photodetectors, ring resonators) whose growth is the paper's scalability
// argument against photonics-only kilo-core networks.
package photonic

import (
	"fmt"
	"slices"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
)

// CrossbarSpec parameterizes an N-tile MWSR photonic crossbar.
type CrossbarSpec struct {
	// Tiles is the number of tiles on the crossbar (16 per OWN cluster;
	// 64/256 for OptXB).
	Tiles int
	// SerializeCy is the per-flit occupancy of one home channel in
	// cycles (includes any bisection-equalization slowdown). When the
	// waveguide is split into VC groups, each subchannel serializes at
	// SerializeCy * len(VCGroups).
	SerializeCy int
	// PropCy is the waveguide flight time in cycles.
	PropCy int
	// TokenHopCy is the token-passing cost per tile position on the
	// snake waveguide.
	TokenHopCy int
	// NumVCs / BufDepth mirror the attached routers' configuration.
	NumVCs, BufDepth int
	// VCGroups partitions the VCs into independent wavelength
	// subchannels, each with its own token and packet lock. OWN needs
	// this for deadlock freedom: its "up" photonic legs (VCs 2-3) may
	// stall on wireless credits while holding a packet lock, and must
	// not block the terminal "down" legs (VCs 0-1) sharing the
	// waveguide — so each class rides its own half of the DWDM comb.
	// Empty means a single group containing all VCs (OptXB).
	VCGroups [][]int
}

func (s CrossbarSpec) groups() [][]int {
	if len(s.VCGroups) > 0 {
		return s.VCGroups
	}
	all := make([]int, s.NumVCs)
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// vcDemux fans a router output port out to the per-VC-group subchannel
// writers.
type vcDemux struct {
	byVC []noc.Conduit
}

func (d *vcDemux) Send(f *noc.Flit) { d.byVC[f.VC].Send(f) }

// rxDemux routes returned input-buffer credits back to the subchannel
// that owns the VC.
type rxDemux struct {
	byVC []noc.CreditReturner
}

func (d *rxDemux) ReturnCredit(vc int) { d.byVC[vc].ReturnCredit(vc) }

// PortMap tells the crossbar builder which router ports to use: the
// output port of writer tile w toward reader tile t, and the input port
// on which reader tile t receives from its home waveguide.
type PortMap struct {
	// WriterPort returns the output port on tile w's router used to
	// write to tile t's home channel (w != t).
	WriterPort func(w, t int) int
	// ReaderPort returns the input port on tile t's router fed by its
	// home channel.
	ReaderPort func(t int) int
}

// BuildCrossbar wires an MWSR crossbar among the given tile routers and
// registers its channels with the network engine and their
// transmitted-flit counts with the network's power meter. It appends
// every subchannel to n.Channels (Tiles x len(VCGroups) of them): tile
// t's home waveguide is the consecutive group subchannels starting at
// the crossbar's first plus t*len(VCGroups).
func BuildCrossbar(n *fabric.Network, name string, routers []*router.Router, pm PortMap, spec CrossbarSpec) {
	if len(routers) != spec.Tiles {
		panic(fmt.Sprintf("photonic %s: %d routers for %d tiles", name, len(routers), spec.Tiles))
	}
	groups := spec.groups()
	subSer := spec.SerializeCy * len(groups)
	// Each home channel is written by every other tile, so the crossbar's
	// edges are known up front.
	n.Edges = slices.Grow(n.Edges, spec.Tiles*(spec.Tiles-1))
	for t := 0; t < spec.Tiles; t++ {
		rp := pm.ReaderPort(t)
		// A waveguide split into VC groups demuxes reader t's input credits
		// and each writer tile's output port across the group subchannels
		// (writerBy entry t stays unused; one conduit array, carved per
		// writer). A single group connects the ports to its receiver and
		// writers directly.
		var rx noc.CreditReturner
		var rxBy *rxDemux
		var writerBy []vcDemux
		if len(groups) > 1 {
			rxBy = &rxDemux{byVC: make([]noc.CreditReturner, spec.NumVCs)}
			rx = rxBy
			writerBy = make([]vcDemux, spec.Tiles)
			conduits := make([]noc.Conduit, spec.Tiles*spec.NumVCs)
			for w := range writerBy {
				lo, hi := w*spec.NumVCs, (w+1)*spec.NumVCs
				writerBy[w].byVC = conduits[lo:hi:hi]
			}
		}
		for gi, group := range groups {
			ch := sbus.NewChannel(fmt.Sprintf("%s/home%d.%d", name, t, gi), subSer, spec.PropCy, spec.TokenHopCy)
			ch.Kind = "photonic"
			n.Meter.ReadLink(&ch.Transmitted, 0)
			grx := ch.AddRx(routers[t], rp, spec.NumVCs, spec.BufDepth)
			if rxBy == nil {
				rx = grx
			} else {
				for _, vc := range group {
					rxBy.byVC[vc] = grx
				}
			}
			// Writer side: every other tile, in tile order (the
			// token circulates along the snake waveguide).
			for w := 0; w < spec.Tiles; w++ {
				if w == t {
					continue
				}
				wr := ch.AddWriter(routers[w], pm.WriterPort(w, t), spec.NumVCs, spec.BufDepth)
				wr.SetID(routers[w].Cfg.ID)
				if writerBy == nil {
					routers[w].ConnectOutput(pm.WriterPort(w, t), wr, spec.BufDepth, 1)
				} else {
					for _, vc := range group {
						writerBy[w].byVC[vc] = wr
					}
				}
				if gi == 0 {
					n.NoteEdge(routers[w].Cfg.ID, routers[t].Cfg.ID, fabric.Photonic)
				}
			}
			ch.SetWaker(n.Eng.RegisterWakeable(sim.PhaseDelivery, ch))
			n.TrackChannel(ch)
		}
		routers[t].ConnectInput(rp, rx)
		for w := range writerBy {
			if w != t {
				routers[w].ConnectOutput(pm.WriterPort(w, t), &writerBy[w], spec.BufDepth, 1)
			}
		}
	}
}
