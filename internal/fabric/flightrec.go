package fabric

import (
	"fmt"

	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
)

// InstallFlightRecorder wires a flight recorder into an assembled
// network. Call it after the topology builder and BEFORE InstallProbe:
// the probe installer is what wires the recorder, registering its
// stall.* gauges behind every other column and pointing it at the
// sampler. The token-fairness artifacts and token.* gauges are the
// probe's, read from its span tracker's token ledger. A nil recorder is
// a no-op. Like the probe layer, the recorder is inert: it only reads
// state the simulation already maintains, and it registers no engine
// component, so installing it never changes a Result.
func (n *Network) InstallFlightRecorder(fr *flightrec.FlightRecorder) {
	if fr == nil {
		return
	}
	if n.FlightRec != nil {
		panic(fmt.Sprintf("fabric %s: flight recorder installed twice", n.Name))
	}
	if n.Probe != nil {
		panic(fmt.Sprintf("fabric %s: install the flight recorder before the probe", n.Name))
	}
	n.FlightRec = fr
}

// wireFlightRec registers the stall gauges and points the recorder at
// the sampler. InstallProbe calls it last, so every flight-recorder
// column rides behind the established metric layout and runs without a
// recorder are byte-identical to before.
func (n *Network) wireFlightRec(p *probe.Probe) {
	fr := n.FlightRec
	if fr == nil {
		return
	}
	reg := p.Registry()
	chans := n.Channels
	reg.Gauge("stall.ch_queue_high_water", func() float64 {
		total := 0
		for _, ch := range chans {
			total += ch.QueueHighWater()
		}
		return float64(total)
	})
	routers := n.Routers
	reg.Gauge("stall.router_buf_high_water", func() float64 {
		total := 0
		for _, r := range routers {
			total += r.BufferedHighWater()
		}
		return float64(total)
	})
	fr.Rec.Attach(p.Sampler())
}

// Progress reads the network's liveness counters: what the sources
// generated, injected, dropped and still queue, what the sinks ejected,
// and the flits buffered in routers and queued on shared channels. It is
// the one sum of them: every Snapshot and the probe's net.* gauges read
// it.
func (n *Network) Progress() flightrec.Progress {
	var p flightrec.Progress
	for _, s := range n.Sources {
		p.Generated += s.Generated
		p.Injected += s.Injected
		p.Dropped += s.Dropped
		p.SrcQueued += s.QueueLen()
	}
	for _, s := range n.Sinks {
		p.Ejected += s.Ejected
	}
	p.BufferedFlits = n.BufferedFlits()
	for _, ch := range n.Channels {
		p.ChannelQueued += ch.Queued()
	}
	return p
}

// Snapshot assembles the full diagnostic state dump of a checker
// violation and the record's dump.json. It must run on the
// simulation goroutine; it reads but never mutates simulation state.
func (n *Network) Snapshot(reason string) *flightrec.Snapshot {
	cycle := n.Eng.Cycle()
	snap := &flightrec.Snapshot{
		Reason:   reason,
		Cycle:    cycle,
		Net:      n.Name,
		Cores:    n.NumCores,
		Tiles:    n.Tiles(),
		Progress: n.Progress(),
		Engine:   n.EngineIntro(),
		Pools:    n.PoolIntro(),
	}
	for _, ch := range n.Channels {
		snap.Channels = append(snap.Channels, ch.Introspect())
	}
	for _, r := range n.Routers {
		snap.Routers = append(snap.Routers, flightrec.RouterInfo{
			ID:           r.Cfg.ID,
			Buffered:     r.BufferedFlits(),
			BufHighWater: r.BufferedHighWater(),
		})
	}
	if n.Probe != nil {
		if sp := n.Probe.Spans(); sp != nil {
			for _, ls := range sp.LiveSpans() {
				snap.Packets = append(snap.Packets, flightrec.PacketInfo{
					ID:        ls.ID,
					Src:       ls.Src,
					Dst:       ls.Dst,
					CreatedAt: ls.CreatedAt,
					AgeCy:     cycle - ls.CreatedAt,
					Phase:     ls.Phase.String(),
					MarkCy:    ls.MarkCy,
				})
			}
		}
	}
	return snap
}
