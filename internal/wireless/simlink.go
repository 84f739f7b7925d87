package wireless

import (
	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/sim"
)

// Endpoint names one router port for channel wiring.
type Endpoint struct {
	Router *router.Router
	Port   int
}

// LinkOpts parameterizes a simulated wireless channel.
type LinkOpts struct {
	// Name is a debugging label.
	Name string
	// ChannelID names the channel in the power meter's per-channel
	// accounting (the paper's Figure 5 reports per-channel wireless link
	// power) and indexes Meter.PriceWireless's table.
	ChannelID int
	// ClassLabel names the link-distance class for energy attribution
	// ("C2C", "E2E", "SR", or a builder label like "grid"); empty
	// channels report as "unclassified".
	ClassLabel string
	// EPBpJ is the transmit energy per bit (already LD-scaled).
	EPBpJ float64
	// SerializeCy is the per-flit air time, from the band's data rate.
	SerializeCy int
	// PropCy is the flight time (sub-nanosecond in practice: 1 cycle).
	PropCy int
	// TokenHopCy is the transmit-token passing cost between the
	// writers of a shared (SWMR) channel.
	TokenHopCy int
	// NumVCs and BufDepth mirror the attached routers.
	NumVCs, BufDepth int
	// TxQueueDepth is the transmitter-side per-VC queue depth (antenna
	// buffer); defaults to BufDepth. Deeper TX queues absorb wormhole
	// gaps on the slow (8-16 cycles/flit) air interface.
	TxQueueDepth int
}

func (o LinkOpts) txDepth() int {
	if o.TxQueueDepth > 0 {
		return o.TxQueueDepth
	}
	return o.BufDepth
}

// BuildP2P wires a dedicated point-to-point wireless channel (the OWN-256
// inter-cluster channels and the wireless-CMESH grid links) from tx to
// rx and registers it with the network engine: a BuildSWMR channel with
// one transmitter and one receiver, which needs no receiver selection.
func BuildP2P(n *fabric.Network, tx, rx Endpoint, o LinkOpts) *sbus.Channel {
	return BuildSWMR(n, []Endpoint{tx}, []Endpoint{rx}, nil, o)
}

// BuildSWMR wires an OWN-1024 single-writer multiple-reader multicast
// channel: any of the txs may transmit (one at a time, token-arbitrated);
// every rx hears the signal, but only the receiver selected by selectRx
// forwards it — the rest discard it, paying receiver energy, which the
// paper identifies as the cost of wireless SWMR.
func BuildSWMR(n *fabric.Network, txs, rxs []Endpoint, selectRx func(p *noc.Packet) int, o LinkOpts) *sbus.Channel {
	ch := sbus.NewChannel(o.Name, o.SerializeCy, o.PropCy, o.TokenHopCy)
	ch.Kind = "wireless"
	ch.Class = o.ClassLabel
	n.Meter.ReadWireless(o.ChannelID, o.ClassLabel, o.EPBpJ, len(rxs)-1, &ch.Transmitted)
	ch.SelectRx = selectRx
	for _, tx := range txs {
		w := ch.AddWriter(tx.Router, tx.Port, o.NumVCs, o.txDepth())
		w.SetID(tx.Router.Cfg.ID)
		tx.Router.ConnectOutput(tx.Port, w, o.txDepth(), 1)
	}
	for _, rx := range rxs {
		r := ch.AddRx(rx.Router, rx.Port, o.NumVCs, o.BufDepth)
		rx.Router.ConnectInput(rx.Port, r)
	}
	ch.SetWaker(n.Eng.RegisterWakeable(sim.PhaseDelivery, ch))
	n.TrackChannel(ch)
	for _, tx := range txs {
		for _, rx := range rxs {
			n.NoteEdge(tx.Router.Cfg.ID, rx.Router.Cfg.ID, fabric.Wireless)
		}
	}
	return ch
}
