package wireless

import "fmt"

// Cluster geometry: the four 25x25 mm chiplets of OWN-256 sit in a 2x2
// arrangement. With 0 top-left, 1 top-right, 2 bottom-right and 3
// bottom-left, Table I's pairs decompose as:
//
//	diagonal (C2C, ~60 mm):   3<->1 and 0<->2
//	edge     (E2E, ~30 mm):   3<->2 and 0<->1 (horizontal edges)
//	short    (SR,  ~10 mm):   0<->3 and 1<->2 (adjacent corners)
//
// Each unordered pair gets two directed channels (one per direction),
// for 12 inter-cluster channels total; antennas A-C at the cluster
// corners terminate them and antenna D is reserved (it carries the
// intra-group channel in OWN-1024).

// Link is one directed wireless channel of OWN-256 (a Table I row
// direction).
type Link struct {
	// ID is the channel index, 0-11.
	ID int
	// SrcCluster and DstCluster are the directed endpoints.
	SrcCluster, DstCluster int
	// TxAntenna and RxAntenna name the terminating antennas, e.g.
	// "A3" -> "B1".
	TxAntenna, RxAntenna string
	// Class is the link-distance class.
	Class DistClass
	// PairIndex identifies the unordered pair within its class (0 or
	// 1); channels with different PairIndex are spatially disjoint and
	// may share a frequency band via SDM.
	PairIndex int
}

// OWN256Links returns the 12 directed inter-cluster channels of Table I,
// ordered class-major (C2C, E2E, SR) and pair-major within a class.
func OWN256Links() []Link {
	mk := func(id, src, dst int, tx, rx string, class DistClass, pair int) Link {
		return Link{ID: id, SrcCluster: src, DstCluster: dst, TxAntenna: tx, RxAntenna: rx, Class: class, PairIndex: pair}
	}
	return []Link{
		// Diagonal links (~60 mm).
		mk(0, 3, 1, "A3", "B1", C2C, 0),
		mk(1, 1, 3, "B1", "A3", C2C, 0),
		mk(2, 0, 2, "A0", "B2", C2C, 1),
		mk(3, 2, 0, "B2", "A0", C2C, 1),
		// Edge links (~30 mm).
		mk(4, 2, 3, "A2", "B3", E2E, 0),
		mk(5, 3, 2, "B3", "A2", E2E, 0),
		mk(6, 1, 0, "A1", "B0", E2E, 1),
		mk(7, 0, 1, "B0", "A1", E2E, 1),
		// Short-range links (~10 mm).
		mk(8, 0, 3, "C0", "C3", SR, 0),
		mk(9, 3, 0, "C3", "C0", SR, 0),
		mk(10, 1, 2, "C1", "C2", SR, 1),
		mk(11, 2, 1, "C2", "C1", SR, 1),
	}
}

// LinkBetween returns the directed OWN-256 channel from cluster src to
// cluster dst.
func LinkBetween(src, dst int) Link {
	for _, l := range OWN256Links() {
		if l.SrcCluster == src && l.DstCluster == dst {
			return l
		}
	}
	panic(fmt.Sprintf("wireless: no channel %d->%d", src, dst))
}

// GroupLink is one wireless channel of OWN-1024 (a Table II row): either
// a directed inter-group SWMR multicast channel, or a group's intra-group
// channel shared by its four clusters.
type GroupLink struct {
	// ID is the channel index, 0-15.
	ID int
	// SrcGroup and DstGroup are the directed endpoints; equal for
	// intra-group channels.
	SrcGroup, DstGroup int
	// Antenna is the antenna letter used at every cluster on the
	// channel (A for diagonal pairs, B for edges, C for short range, D
	// for intra-group, mirroring the 256-core placement).
	Antenna string
	// Class is the distance class of the group-level hop; intra-group
	// channels span at most an edge of the group and are classed E2E.
	Class DistClass
	// PairIndex identifies the unordered group pair within its class
	// for SDM, as in Link.
	PairIndex int
}

// Intra reports whether the channel is a group's internal channel.
func (g GroupLink) Intra() bool { return g.SrcGroup == g.DstGroup }

// OWN1024Links returns the 16 channels of the 1024-core design: 12
// directed inter-group channels (geometry mirrors Table I at group scale,
// per the paper's 3D-stacked group layout) plus one intra-group channel
// per group. The paper notes the 1024-core case needs all 16 channels.
func OWN1024Links() []GroupLink {
	mk := func(id, src, dst int, ant string, class DistClass, pair int) GroupLink {
		return GroupLink{ID: id, SrcGroup: src, DstGroup: dst, Antenna: ant, Class: class, PairIndex: pair}
	}
	return []GroupLink{
		// Inter-group, diagonal.
		mk(0, 3, 1, "A", C2C, 0),
		mk(1, 1, 3, "A", C2C, 0),
		mk(2, 0, 2, "A", C2C, 1),
		mk(3, 2, 0, "A", C2C, 1),
		// Inter-group, edge.
		mk(4, 2, 3, "B", E2E, 0),
		mk(5, 3, 2, "B", E2E, 0),
		mk(6, 1, 0, "B", E2E, 1),
		mk(7, 0, 1, "B", E2E, 1),
		// Inter-group, short range.
		mk(8, 0, 3, "C", SR, 0),
		mk(9, 3, 0, "C", SR, 0),
		mk(10, 1, 2, "C", SR, 1),
		mk(11, 2, 1, "C", SR, 1),
		// Intra-group channels on antenna D.
		mk(12, 0, 0, "D", E2E, 0),
		mk(13, 1, 1, "D", E2E, 0),
		mk(14, 2, 2, "D", E2E, 1),
		mk(15, 3, 3, "D", E2E, 1),
	}
}

// groupLinks is OWN1024Links indexed by directed group pair, built once:
// the OWN-1024 classifier looks a link up for every inter-group packet.
var groupLinks = func() (t [4][4]GroupLink) {
	for _, l := range OWN1024Links() {
		t[l.SrcGroup][l.DstGroup] = l
	}
	return t
}()

// GroupLinkBetween returns the directed inter-group channel from group
// src to group dst (src != dst), or the intra-group channel when
// src == dst.
func GroupLinkBetween(src, dst int) GroupLink {
	if src < 0 || src >= len(groupLinks) || dst < 0 || dst >= len(groupLinks) {
		panic(fmt.Sprintf("wireless: no group channel %d->%d", src, dst))
	}
	return groupLinks[src][dst]
}
