// Package fuzznet holds the random-network fixtures of the fuzz tests and
// the conformance campaign: random up*/down* networks built with fabric,
// and the uniform workloads they replay as traces. Only tests import it.
package fuzznet

import (
	"fmt"

	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/router"
	"ownsim/internal/sim"
	"ownsim/internal/traffic"
)

// UniformTrace records the arrivals a uniform Bernoulli workload offers
// cores terminals over the first window cycles, as a trace. The fuzz
// tests and the conformance campaign check delivery on its replay:
// RunTrace runs until every packet has ejected, where a Run on a few
// cores would read the packets in flight at its window's edge as
// "saturated" and skip the drain.
func UniformTrace(cores int, rate float64, pktFlits int, seed, window uint64) *traffic.Trace {
	tr := &traffic.Trace{}
	for src := range cores {
		gen := traffic.NewBernoulli(src, cores, traffic.Uniform, rate, pktFlits, seed, nil)
		for cy := range window {
			if p := gen.Generate(cy); p != nil {
				tr.Entries = append(tr.Entries, traffic.TraceEntry{Cycle: cy, Src: src, Dst: p.Dst})
			}
		}
	}
	return tr
}

// RandomUpDownNetwork builds a random strongly-connected network of
// nRouters routers — a bidirectional ring plus random chords — with
// up*/down* (Autonet-style) routing, one terminal per router, and
// randomized VC counts, buffer depths and link delays. It exercises the
// router/wire/credit machinery on shapes none of the paper topologies
// cover; the fabric fuzz tests and the conformance campaign
// (internal/check) both draw from it.
//
// Up*/down* makes every draw deadlock-free by construction: a BFS
// spanning tree from router 0 assigns levels, every link gets an "up"
// direction (toward lower (level, ID)), and a legal route never takes an
// up link after a down link. The up-link order is a partial order on
// channels, so the channel dependency graph is acyclic for any seed —
// unlike the previous directed-BFS generator, whose chords could close
// cyclic dependencies (see TestFuzzDeadlockRegression).
func RandomUpDownNetwork(seed uint64, nRouters int) *fabric.Network {
	rng := sim.NewRNG(seed)
	numVCs := rng.Intn(3) + 1 // 1..3
	depth := rng.Intn(3) + 2  // 2..4
	chords := rng.Intn(nRouters) + 1

	// Undirected ring + chords, stored as a symmetric digraph; the ring
	// guarantees connectivity.
	adj := make([][]int, nRouters)
	addArc := func(a, b int) {
		if a == b {
			return
		}
		for _, x := range adj[a] {
			if x == b {
				return
			}
		}
		adj[a] = append(adj[a], b)
	}
	addEdge := func(a, b int) { addArc(a, b); addArc(b, a) }
	for i := 0; i < nRouters; i++ {
		addEdge(i, (i+1)%nRouters)
	}
	for i := 0; i < chords; i++ {
		addEdge(rng.Intn(nRouters), rng.Intn(nRouters))
	}

	// BFS levels from router 0 define the up direction: u->v is up when
	// (level, ID) decreases lexicographically.
	level := make([]int, nRouters)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	isUp := func(u, v int) bool {
		if level[v] != level[u] {
			return level[v] < level[u]
		}
		return v < u
	}

	// Next-hop tables nh[u][phase][dst] over the 2n (router, phase)
	// states, where phaseUp means the packet has not taken a down link
	// yet (injection starts there) and phaseDown forbids further up
	// links. A backward BFS per destination yields shortest legal routes
	// — remaining distance strictly decreases every hop, so there is no
	// livelock either. A route always exists: the tree path up to the
	// root and down to the destination is legal. Ties break on the
	// lowest adjacency index to keep the tables deterministic.
	const (
		phaseUp   = 0
		phaseDown = 1
		inf       = 1 << 30
	)
	nh := make([][2][]int, nRouters)
	for u := range nh {
		for ph := 0; ph < 2; ph++ {
			nh[u][ph] = make([]int, nRouters)
			for d := range nh[u][ph] {
				nh[u][ph][d] = -1
			}
		}
	}
	dist := make([][2]int, nRouters)
	for dst := 0; dst < nRouters; dst++ {
		for i := range dist {
			dist[i] = [2]int{inf, inf}
		}
		dist[dst] = [2]int{0, 0}
		states := [][2]int{{dst, phaseUp}, {dst, phaseDown}}
		for len(states) > 0 {
			v, ph := states[0][0], states[0][1]
			states = states[1:]
			// Relax predecessors that can step into (v, ph): an up link
			// u->v keeps the phase up and needs the packet still in it; a
			// down link u->v is legal from either phase and lands down.
			for u := 0; u < nRouters; u++ {
				for _, w := range adj[u] {
					if w != v {
						continue
					}
					if isUp(u, v) {
						if ph == phaseUp && dist[u][phaseUp] == inf {
							dist[u][phaseUp] = dist[v][phaseUp] + 1
							states = append(states, [2]int{u, phaseUp})
						}
					} else if ph == phaseDown {
						for p0 := phaseUp; p0 <= phaseDown; p0++ {
							if dist[u][p0] == inf {
								dist[u][p0] = dist[v][phaseDown] + 1
								states = append(states, [2]int{u, p0})
							}
						}
					}
				}
			}
		}
		for u := 0; u < nRouters; u++ {
			if u == dst {
				continue
			}
			for p0 := phaseUp; p0 <= phaseDown; p0++ {
				best, bestDist := -1, inf
				for i, v := range adj[u] {
					var d int
					if isUp(u, v) {
						if p0 != phaseUp {
							continue
						}
						d = dist[v][phaseUp]
					} else {
						d = dist[v][phaseDown]
					}
					if d < bestDist {
						best, bestDist = i, d
					}
				}
				nh[u][p0][dst] = best
			}
		}
	}

	// inPhase[r][port] is the phase a packet is in after arriving on that
	// input port: injection (port 0) and up links leave it up, down links
	// pin it down.
	inPhase := make([][]int, nRouters)
	for r := 0; r < nRouters; r++ {
		inPhase[r] = make([]int, 1+len(adj[r]))
		for _, a := range adj[r] { // symmetric: in-neighbours = out-neighbours
			if !isUp(a, r) {
				inPhase[r][inPortOn(adj, r, a)] = phaseDown
			}
		}
	}

	n := fabric.New("fuzz", nRouters, nil)
	n.Diameter = 2 * nRouters // up*/down* paths climb then descend the tree
	routers := make([]*router.Router, nRouters)
	for r := 0; r < nRouters; r++ {
		rid := r
		ports := 1 + len(adj[r]) // symmetric graph: in-degree = out-degree
		phases := inPhase[r]
		routers[r] = n.AddRouter(router.Config{
			ID:       rid,
			NumPorts: ports,
			NumVCs:   numVCs,
			BufDepth: depth,
			Route: func(p *noc.Packet, in int) (int, uint32) {
				all := uint32(1<<uint(numVCs)) - 1
				if p.Dst == rid {
					return 0, all
				}
				hop := nh[rid][phases[in]][p.Dst]
				if hop < 0 {
					panic(fmt.Sprintf("fuzznet: no legal up*/down* hop from router %d (phase %d) to %d", rid, phases[in], p.Dst))
				}
				return 1 + hop, all
			},
		})
	}
	for a := 0; a < nRouters; a++ {
		for i, b := range adj[a] {
			// Output port on a is 1+i; the input port on b is 1 + the
			// edge's rank among b's in-edges (port slots are
			// direction-independent, so an index used as b's output can
			// also serve as an input).
			inPort := inPortOn(adj, b, a)
			delay := 1 + int(seed%3)
			n.Connect(routers[a], 1+i, routers[b], inPort, fabric.LinkSpec{Delay: delay, SerializeCy: 1})
		}
	}
	for r := 0; r < nRouters; r++ {
		n.AddTerminal(r, routers[r], 0, 0)
	}
	return n
}

// inPortOn returns a stable input-port index on router b for the edge
// a->b: 1 + the edge's rank among b's in-edges, scanning sources in
// ascending order.
func inPortOn(adj [][]int, b, a int) int {
	rank := 0
	for src := 0; src < len(adj); src++ {
		for _, dst := range adj[src] {
			if dst != b {
				continue
			}
			if src == a {
				return 1 + rank
			}
			rank++
		}
	}
	panic("fuzznet: edge not found")
}
