// Package core implements the paper's primary contribution: the OWN
// (Optical-Wireless Network-on-chip) architectures for 256 and 1024
// cores.
//
// OWN-256 is four 64-core clusters; within a cluster the 16 tile routers
// (4 cores each) share a 16-channel MWSR photonic crossbar, and the four
// clusters are joined by the 12 dedicated point-to-point wireless channels
// of Table I, terminated at corner transceivers A-C (antenna D is
// reserved). OWN-1024 tiles four such groups together; inter-group
// channels become SWMR wireless multicasts with a transmit token rotating
// among the source group's four clusters (Table II), and each group gains
// one intra-group channel on antenna D.
//
// Worst-case route is three network hops, as in the paper: one photonic
// hop to the cluster's transmitting antenna router, one wireless hop, and
// one photonic hop to the destination tile — four router traversals.
//
// Deadlock freedom uses the paper's 50/50 VC split: photonic legs toward
// a wireless transmitter ("up" legs) use VCs 2-3, wireless channels use
// the class VC, and terminal photonic legs ("down", including all
// intra-cluster traffic) use VCs 0-1; the leg order is acyclic.
package core

import (
	"fmt"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/topology"
	"ownsim/internal/wireless"
)

// Tile router port layout (radix 22, the paper's OWN-1024 maximum;
// photonic-only tiles leave the wireless ports unconnected).
const (
	// PortCore0..PortCore0+3 are the four core terminals.
	PortCore0 = 0
	// PortPhotonic0..PortPhotonic0+14 are write ports toward the 15
	// other tiles' home waveguides.
	PortPhotonic0 = 4
	// PortPhotonicIn is the home-waveguide read port.
	PortPhotonicIn = 19
	// PortWirelessTx is the antenna transmit port.
	PortWirelessTx = 20
	// PortWirelessRx is the antenna receive port.
	PortWirelessRx = 21
	// NumPorts is the tile router radix.
	NumPorts = 22
)

// TilesPerCluster and related geometry constants.
const (
	TilesPerCluster  = 16
	ClustersPerGroup = 4
	CoresPerTile     = topology.Concentration
	CoresPerCluster  = TilesPerCluster * CoresPerTile     // 64
	CoresPerGroup    = ClustersPerGroup * CoresPerCluster // 256
)

// AntennaTile maps an antenna letter to its corner tile within the 4x4
// tile grid of a cluster.
var AntennaTile = map[byte]int{'A': 0, 'B': 3, 'C': 12, 'D': 15}

// VC masks for the leg discipline.
const (
	vcDownMask  = uint32(0b0011) // terminal photonic legs + intra-cluster
	vcUpMask    = uint32(0b1100) // photonic legs toward a transmitter
	vcFirstMask = uint32(0b1000) // first leg of a relayed (failover) path
	vcRelayMask = uint32(0b0100) // second (relay) leg of a failover path
	vcAllMask   = uint32(0b1111)
)

// Params configures an OWN build.
type Params struct {
	// Cores is 256 or 1024.
	Cores int
	// Config is the Table IV technology configuration (default 4, the
	// paper's best).
	Config wireless.Config
	// Scenario selects the Table III outlook (default Ideal).
	Scenario wireless.Scenario
	// Meter prices the network's event counts; nil disables accounting.
	Meter *power.Meter
	// Reconfig activates the plan's reserved reconfiguration channels
	// (Table III links 13-16, which the paper notes "could adaptively
	// be utilized to improve performance"): each reserve band is bonded
	// to one of the four long-distance C2C channels, doubling its data
	// rate. Only meaningful at 256 cores (the 1024-core design already
	// consumes all 16 channels).
	Reconfig bool
	// BufDepth overrides the per-VC buffer depth; zero keeps the
	// paper-standard depth.
	BufDepth int
	// FailedChannels lists OWN-256 wireless channel IDs (Table I, 0-11)
	// taken out of service; their traffic detours through a relay
	// cluster over two wireless hops. The relay path keeps deadlock
	// freedom by descending VC rank along the route: first leg VC3,
	// relay leg VC2, terminal photonic legs VC0-1. A cluster must keep
	// at least one live outgoing and incoming channel or the build
	// panics as unroutable.
	FailedChannels []int
}

func (p *Params) fill() {
	if p.Config == 0 {
		p.Config = wireless.Config4
	}
	if p.BufDepth == 0 {
		p.BufDepth = topology.BufDepth
	}
}

// photonicWritePort returns the output port on tile `from` used to write
// to tile `to`'s home waveguide (both local tile indices, from != to).
func photonicWritePort(from, to int) int {
	if to < from {
		return PortPhotonic0 + to
	}
	return PortPhotonic0 + to - 1
}

// photonicSpec is the per-cluster crossbar configuration: full-rate
// channels (the cluster waveguides are not the equalization bottleneck),
// ~2-cycle waveguide flight and 1-cycle token hops along the snake.
func photonicSpec(bufDepth int) photonic.CrossbarSpec {
	return photonic.CrossbarSpec{
		Tiles:       TilesPerCluster,
		SerializeCy: 1,
		PropCy:      2,
		TokenHopCy:  1,
		NumVCs:      topology.NumVCs,
		BufDepth:    bufDepth,
		// The 64-wavelength comb is split into two independent
		// subchannels, one per VC class: "up" legs (VCs 2-3) can stall
		// on wireless credits while holding a packet lock and must not
		// block the "down" legs (VCs 0-1) that drain to ejection — the
		// split is what makes the hierarchical route deadlock-free.
		VCGroups: [][]int{{0, 1}, {2, 3}},
	}
}

// BuildOWN256 constructs the 256-core OWN architecture.
func BuildOWN256(p Params) *fabric.Network {
	p.fill()
	if p.Cores != 0 && p.Cores != 256 {
		panic(fmt.Sprintf("core: BuildOWN256 with %d cores", p.Cores))
	}
	plan := wireless.PlanOWN256(p.Config, p.Scenario)
	n := fabric.New(fmt.Sprintf("own256-%s-%s", p.Config, p.Scenario), 256, p.Meter)
	n.Diameter = 4 // src tile, TX antenna router, RX antenna router, dst tile
	n.CoresPerTile = CoresPerTile

	// txTile[c][d] is the local tile hosting the transmitter for
	// cluster c -> cluster d.
	var txTile [4][4]int
	for c := 0; c < 4; c++ {
		for d := 0; d < 4; d++ {
			if c == d {
				continue
			}
			l := wireless.LinkBetween(c, d)
			txTile[c][d] = AntennaTile[l.TxAntenna[0]]
		}
	}
	failed, relay, err := failoverTables(p.FailedChannels)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if len(p.FailedChannels) > 0 {
		// Relayed paths traverse up to six routers: src tile, TX1,
		// relay RX, relay TX, destination RX, dst tile.
		n.Diameter = 6
	}

	routers := make([]*router.Router, 4*TilesPerCluster)
	for c := 0; c < 4; c++ {
		for t := 0; t < TilesPerCluster; t++ {
			cluster, tile := c, t
			id := c*TilesPerCluster + t
			// Only antenna tiles (A, B, C; D is reserved at 256
			// cores) carry the two wireless ports: radix 22 vs 20,
			// mirroring the paper's 20 vs 19.
			numPorts := PortWirelessTx
			if t == AntennaTile['A'] || t == AntennaTile['B'] || t == AntennaTile['C'] {
				numPorts = NumPorts
			}
			routers[id] = n.AddRouter(router.Config{
				ID:       id,
				NumPorts: numPorts,
				NumVCs:   topology.NumVCs,
				BufDepth: p.BufDepth,
				Route: func(pk *noc.Packet, _ int) (int, uint32) {
					return routeOWN256(pk, cluster, tile, &txTile, &failed, &relay)
				},
			})
		}
	}
	// Per-cluster photonic crossbars.
	for c := 0; c < 4; c++ {
		tiles := routers[c*TilesPerCluster : (c+1)*TilesPerCluster]
		photonic.BuildCrossbar(n, fmt.Sprintf("cl%d", c), tiles, photonic.PortMap{
			WriterPort: photonicWritePort,
			ReaderPort: func(int) int { return PortPhotonicIn },
		}, photonicSpec(p.BufDepth))
	}
	// Wireless channels per the Table I allocation and the Table III/IV
	// energy plan. With Reconfig, each C2C channel bonds one of the
	// four reserved reconfiguration bands (13-16), doubling its rate;
	// the bonded transceiver's energy/bit is the mean of the two bands.
	reserveBands := wireless.BandPlan(p.Scenario)[wireless.NumBands-4:]
	for _, ch := range plan.Channels {
		l := ch.Link
		if failed[l.SrcCluster][l.DstCluster] {
			continue // transceiver out of service
		}
		tx := routers[l.SrcCluster*TilesPerCluster+AntennaTile[l.TxAntenna[0]]]
		rx := routers[l.DstCluster*TilesPerCluster+AntennaTile[l.RxAntenna[0]]]
		bw := ch.Band.BWGbps
		epb := ch.EPBpJ
		if p.Reconfig && l.Class == wireless.C2C {
			reserve := reserveBands[l.ID%4]
			bw += reserve.BWGbps
			epb = (ch.EPBpJ + float64(reserve.EPBpJ(p.Scenario)*l.Class.LDFactor())) / 2
		}
		wireless.BuildP2P(n,
			wireless.Endpoint{Router: tx, Port: PortWirelessTx},
			wireless.Endpoint{Router: rx, Port: PortWirelessRx},
			wireless.LinkOpts{
				Name:         fmt.Sprintf("wl-%s-%s", l.TxAntenna, l.RxAntenna),
				ChannelID:    l.ID,
				ClassLabel:   l.Class.String(),
				EPBpJ:        epb,
				SerializeCy:  topology.WirelessCyPerFlit(bw),
				PropCy:       1,
				NumVCs:       topology.NumVCs,
				BufDepth:     p.BufDepth,
				TxQueueDepth: 2 * p.BufDepth,
			})
	}
	// Terminals.
	for core := 0; core < 256; core++ {
		local := core % CoresPerTile
		n.AddTerminal(core, routers[core/CoresPerTile], PortCore0+local, PortCore0+local)
	}
	return n
}

// routeOWN256 implements the hierarchical photonic/wireless route, with
// relay failover when the direct channel is out of service.
func routeOWN256(pk *noc.Packet, cluster, tile int, txTile *[4][4]int, failed *[4][4]bool, relay *[4][4]int) (int, uint32) {
	dstTileGlobal := pk.Dst / CoresPerTile
	dstCluster := dstTileGlobal / TilesPerCluster
	dstTile := dstTileGlobal % TilesPerCluster
	if dstCluster == cluster {
		if dstTile == tile {
			return PortCore0 + pk.Dst%CoresPerTile, vcAllMask
		}
		// Terminal ("down") photonic leg, also taken by pure
		// intra-cluster traffic.
		return photonicWritePort(tile, dstTile), vcDownMask
	}
	nextCluster := dstCluster
	mask := vcUpMask
	if failed[cluster][dstCluster] {
		nextCluster = relay[cluster][dstCluster]
		mask = vcFirstMask
	}
	if srcCluster := pk.Src / CoresPerCluster; srcCluster != cluster {
		// Neither source nor destination cluster: this is the relay
		// midpoint of a failover path; descend to the relay VC rank.
		mask = vcRelayMask
	}
	tx := txTile[cluster][nextCluster]
	if tile == tx {
		return PortWirelessTx, mask
	}
	return photonicWritePort(tile, tx), mask
}

// CheckFailedChannels reports whether BuildOWN256 can route around the
// given failed channel IDs (Params.FailedChannels). cmd/ownsim calls it on
// -fail before anything is built; BuildOWN256 keeps its panic as the
// engine invariant.
func CheckFailedChannels(ids []int) error {
	_, _, err := failoverTables(ids)
	return err
}

// failoverTables derives the failed-channel matrix and, for each failed
// directed pair, a relay cluster whose two-hop path is fully alive.
func failoverTables(failedIDs []int) (failed [4][4]bool, relay [4][4]int, err error) {
	links := wireless.OWN256Links()
	for _, id := range failedIDs {
		if id < 0 || id >= len(links) {
			return failed, relay, fmt.Errorf("invalid failed channel id %d (want 0-%d)", id, len(links)-1)
		}
		l := links[id]
		if failed[l.SrcCluster][l.DstCluster] {
			return failed, relay, fmt.Errorf("failed channel id %d listed twice", id)
		}
		failed[l.SrcCluster][l.DstCluster] = true
	}
	relay, err = relays(failed)
	return failed, relay, err
}

// relays picks, for every failed channel c->d of a four-node wireless
// level (OWN-256's clusters, OWN-1024's groups), the lowest-index relay r
// whose hops c->r and r->d are both live.
func relays(failed [4][4]bool) (relay [4][4]int, err error) {
	for c := 0; c < 4; c++ {
		for d := 0; d < 4; d++ {
			if c == d || !failed[c][d] {
				continue
			}
			r := 0
			for r < 4 && (r == c || r == d || failed[c][r] || failed[r][d]) {
				r++
			}
			if r == 4 {
				return relay, fmt.Errorf("no live relay for failed channel %d->%d", c, d)
			}
			relay[c][d] = r
		}
	}
	return relay, nil
}

// OWNPolicy is the injection VC policy matching the routing discipline
// of OWN at either scale: a packet that stays in its cluster starts on
// the down VCs, any other on the up VCs.
func OWNPolicy(p *noc.Packet) uint32 {
	if p.Src/CoresPerCluster == p.Dst/CoresPerCluster {
		return vcDownMask
	}
	return vcUpMask
}
