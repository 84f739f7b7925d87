package topology

import (
	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/router"
)

// BuildOptXB constructs the all-photonic crossbar baseline (Corona-style
// OptXB): every 4-core tile owns one MWSR home waveguide written by all
// other tiles under token arbitration. The paper's radix is 67 at 256
// cores (63 crossbar write ports + 4 cores); we add the home read port.
//
// The maximum network diameter is one (two router traversals including
// the destination tile); the cost is the token round trip on a 64-writer
// snake, which is why the paper observes OptXB "shows a slight decrease
// in throughput since token transfer consumes a few extra cycles".
func BuildOptXB(p Params) *fabric.Network {
	p.validate("optxb")
	tiles := p.Cores / Concentration
	ser := EqualizedSerialize("optxb", p.Cores)

	n := fabric.New("optxb", p.Cores, p.Meter)
	n.CoresPerTile = Concentration
	n.Diameter = 2

	// Ports: 0-3 cores, 4..4+tiles-2 write ports, last port = home read.
	writeBase := Concentration
	readPort := writeBase + tiles - 1
	numPorts := readPort + 1

	writePort := func(from, to int) int {
		if to < from {
			return writeBase + to
		}
		return writeBase + to - 1
	}

	routers := make([]*router.Router, tiles)
	for t := 0; t < tiles; t++ {
		tile := t
		routers[t] = n.AddRouter(router.Config{
			ID:       t,
			NumPorts: numPorts,
			NumVCs:   NumVCs,
			BufDepth: p.Depth(),
			Route: func(pk *noc.Packet, _ int) (int, uint32) {
				const all = uint32(1<<NumVCs) - 1
				dt := pk.Dst / Concentration
				if dt == tile {
					return pk.Dst % Concentration, all
				}
				return writePort(tile, dt), all
			},
		})
	}
	photonic.BuildCrossbar(n, "optxb", routers, photonic.PortMap{
		WriterPort: writePort,
		ReaderPort: func(int) int { return readPort },
	}, photonic.CrossbarSpec{
		Tiles:       tiles,
		SerializeCy: ser,
		PropCy:      3, // ~50-100 mm snake waveguide
		TokenHopCy:  1,
		NumVCs:      NumVCs,
		BufDepth:    p.Depth(),
	})
	for c := 0; c < p.Cores; c++ {
		local := c % Concentration
		n.AddTerminal(c, routers[c/Concentration], local, local)
	}
	return n
}
