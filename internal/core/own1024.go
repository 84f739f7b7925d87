package core

import (
	"fmt"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/router"
	"ownsim/internal/topology"
	"ownsim/internal/wireless"
)

// Traffic classes of OWN-1024, matching the paper's VC restriction: "VC0
// for intra-group communication, VC1 for inter-group vertical, VC2 for
// inter-group horizontal and VC3 for inter-group diagonal".
const (
	ClassIntraGroup = 0
	ClassVertical   = 1
	ClassHorizontal = 2
	ClassDiagonal   = 3
)

// groupClass maps a directed group pair to its traffic class. The group
// layout mirrors the cluster layout (0 top-left, 1 top-right, 2
// bottom-right, 3 bottom-left), so SR pairs are vertical neighbours, E2E
// pairs horizontal, C2C diagonal.
func groupClass(src, dst int) int {
	if src == dst {
		return ClassIntraGroup
	}
	switch wireless.GroupLinkBetween(src, dst).Class {
	case wireless.SR:
		return ClassVertical
	case wireless.E2E:
		return ClassHorizontal
	default:
		return ClassDiagonal
	}
}

// Classify1024 is the traffic.Classifier for OWN-1024 runs.
func Classify1024(src, dst int) int {
	return groupClass(src/CoresPerGroup, dst/CoresPerGroup)
}

// failoverTables1024 derives the failed inter-group matrix and relay
// groups from GroupLink IDs. Intra-group channels (IDs 12-15) cannot be
// failed: they are each group's only internal path.
func failoverTables1024(failedIDs []int) (failed [4][4]bool, relay [4][4]int, err error) {
	links := wireless.OWN1024Links()
	for _, id := range failedIDs {
		if id < 0 || id >= len(links) {
			return failed, relay, fmt.Errorf("invalid failed group channel id %d", id)
		}
		l := links[id]
		if l.Intra() {
			return failed, relay, fmt.Errorf("intra-group channel %d cannot be failed (no alternative path)", id)
		}
		failed[l.SrcGroup][l.DstGroup] = true
	}
	relay, err = relays(failed)
	return failed, relay, err
}

// BuildOWN1024 constructs the 1024-core OWN architecture: four OWN-256
// groups joined by SWMR wireless multicast channels with intra-group
// transmit tokens (Table II).
func BuildOWN1024(p Params) *fabric.Network {
	p.fill()
	if p.Cores != 0 && p.Cores != 1024 {
		panic(fmt.Sprintf("core: BuildOWN1024 with %d cores", p.Cores))
	}
	plan := wireless.PlanOWN1024(p.Config, p.Scenario)
	n := fabric.New(fmt.Sprintf("own1024-%s-%s", p.Config, p.Scenario), 1024, p.Meter)
	n.Diameter = 4
	n.CoresPerTile = CoresPerTile

	const numGroups = 4
	totalTiles := numGroups * ClustersPerGroup * TilesPerCluster
	routers := make([]*router.Router, totalTiles)
	failed, relay, err := failoverTables1024(p.FailedChannels)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if len(p.FailedChannels) > 0 {
		// Relayed inter-group paths traverse up to six routers.
		n.Diameter = 6
	}

	// txTileForGroup[dg] is the local antenna tile used to transmit
	// toward group dg (same in every cluster); dTile hosts the
	// intra-group channel.
	dTile := AntennaTile['D']

	tileIndex := func(g, c, t int) int {
		return (g*ClustersPerGroup+c)*TilesPerCluster + t
	}

	for g := 0; g < numGroups; g++ {
		var txTileForGroup [4]int
		for dg := 0; dg < numGroups; dg++ {
			if dg == g {
				txTileForGroup[dg] = dTile
				continue
			}
			txTileForGroup[dg] = AntennaTile[wireless.GroupLinkBetween(g, dg).Antenna[0]]
		}
		for c := 0; c < ClustersPerGroup; c++ {
			for t := 0; t < TilesPerCluster; t++ {
				group, cluster, tile := g, c, t
				tt := txTileForGroup
				id := tileIndex(g, c, t)
				// All four corner tiles carry antennas at 1024
				// cores (D hosts the intra-group channel).
				numPorts := PortWirelessTx
				if t == AntennaTile['A'] || t == AntennaTile['B'] || t == AntennaTile['C'] || t == AntennaTile['D'] {
					numPorts = NumPorts
				}
				routers[id] = n.AddRouter(router.Config{
					ID:       id,
					NumPorts: numPorts,
					NumVCs:   topology.NumVCs,
					BufDepth: p.BufDepth,
					Route: func(pk *noc.Packet, _ int) (int, uint32) {
						return routeOWN1024(pk, group, cluster, tile, &tt, &failed, &relay)
					},
				})
			}
		}
	}

	// Photonic crossbar per cluster.
	for g := 0; g < numGroups; g++ {
		for c := 0; c < ClustersPerGroup; c++ {
			base := tileIndex(g, c, 0)
			tiles := routers[base : base+TilesPerCluster]
			photonic.BuildCrossbar(n, fmt.Sprintf("g%dc%d", g, c), tiles, photonic.PortMap{
				WriterPort: photonicWritePort,
				ReaderPort: func(int) int { return PortPhotonicIn },
			}, photonicSpec(p.BufDepth))
		}
	}

	// Wireless channels. Inter-group channels are SWMR: any cluster of
	// the source group transmits (token-shared), all four clusters of
	// the destination group receive and only the addressed cluster
	// forwards. Intra-group channels connect a group's four D routers.
	const swmrTokenHopCy = 4 // clusters are tens of mm apart
	for _, ch := range plan.Channels {
		l := ch.Link
		if !l.Intra() && failed[l.SrcGroup][l.DstGroup] {
			continue // channel out of service
		}
		ser := topology.WirelessCyPerFlit(ch.Band.BWGbps)
		ant := AntennaTile[l.Antenna[0]]
		var txs, rxs []wireless.Endpoint
		for c := 0; c < ClustersPerGroup; c++ {
			txs = append(txs, wireless.Endpoint{Router: routers[tileIndex(l.SrcGroup, c, ant)], Port: PortWirelessTx})
			rxs = append(rxs, wireless.Endpoint{Router: routers[tileIndex(l.DstGroup, c, ant)], Port: PortWirelessRx})
		}
		wireless.BuildSWMR(n, txs, rxs,
			func(pk *noc.Packet) int {
				return (pk.Dst % CoresPerGroup) / CoresPerCluster
			},
			wireless.LinkOpts{
				Name:         fmt.Sprintf("wl-g%d-g%d-%s", l.SrcGroup, l.DstGroup, l.Antenna),
				ChannelID:    l.ID,
				ClassLabel:   l.Class.String(),
				EPBpJ:        ch.EPBpJ,
				SerializeCy:  ser,
				PropCy:       1,
				TokenHopCy:   swmrTokenHopCy,
				NumVCs:       topology.NumVCs,
				BufDepth:     p.BufDepth,
				TxQueueDepth: 2 * p.BufDepth,
			})
	}

	for core := 0; core < 1024; core++ {
		local := core % CoresPerTile
		n.AddTerminal(core, routers[core/CoresPerTile], PortCore0+local, PortCore0+local)
	}
	return n
}

// routeOWN1024 implements the hierarchical route: photonic "up" leg to
// the antenna tile (VCs 2-3), wireless hop on the class VC, photonic
// "down" leg (VCs 0-1). When the direct inter-group channel is failed,
// traffic relays through a third group; the relay path stays acyclic
// because its two wireless hops use distinct direction-class VCs and
// every wireless hop drains into either a terminal leg or exactly one
// further wireless hop that terminates.
func routeOWN1024(pk *noc.Packet, group, cluster, tile int, txTileForGroup *[4]int, failed *[4][4]bool, relay *[4][4]int) (int, uint32) {
	dstTileGlobal := pk.Dst / CoresPerTile
	dstGroup := dstTileGlobal / (ClustersPerGroup * TilesPerCluster)
	dstCluster := (dstTileGlobal / TilesPerCluster) % ClustersPerGroup
	dstTile := dstTileGlobal % TilesPerCluster

	if dstGroup == group && dstCluster == cluster {
		if dstTile == tile {
			return PortCore0 + pk.Dst%CoresPerTile, vcAllMask
		}
		return photonicWritePort(tile, dstTile), vcDownMask
	}
	nextGroup := dstGroup
	if dstGroup != group && failed[group][dstGroup] {
		nextGroup = relay[group][dstGroup]
	}
	tx := txTileForGroup[nextGroup]
	if tile == tx {
		return PortWirelessTx, 1 << uint(groupClass(group, nextGroup))
	}
	return photonicWritePort(tile, tx), vcUpMask
}
