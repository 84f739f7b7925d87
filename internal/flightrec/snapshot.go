package flightrec

import (
	"encoding/json"
	"io"

	"ownsim/internal/probe"
	"ownsim/internal/sbus"
)

// Progress is the network-level liveness picture at snapshot time.
type Progress struct {
	Generated     uint64 `json:"generated"`
	Injected      uint64 `json:"injected"`
	Dropped       uint64 `json:"dropped"`
	Ejected       uint64 `json:"ejected"`
	SrcQueued     int    `json:"src_queued"`
	BufferedFlits int    `json:"buffered_flits"`
	ChannelQueued int    `json:"channel_queued"`
}

// RouterInfo is one router's occupancy at snapshot time.
type RouterInfo struct {
	ID           int `json:"id"`
	Buffered     int `json:"buffered"`
	BufHighWater int `json:"buf_high_water"`
}

// PacketInfo is one in-flight measured packet with its current span
// phase — "where is packet N stuck right now".
type PacketInfo struct {
	ID        uint64 `json:"id"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	CreatedAt uint64 `json:"created_cy"`
	AgeCy     uint64 `json:"age_cy"`
	Phase     string `json:"phase"`
	MarkCy    uint64 `json:"phase_since_cy"`
}

// Snapshot is a full diagnostic state dump: liveness counters, engine
// and pool introspection, every shared channel's arbitration state,
// router occupancy, and in-flight measured packets with their span
// phase. Who waits for a token, since when, and who holds it is in
// Channels: the channel's Token and lock, and each writer's wait state
// as the channel keeps it. All slices are index-ordered, so two
// snapshots of identical simulated state marshal to identical bytes.
type Snapshot struct {
	Reason   string              `json:"reason"`
	Cycle    uint64              `json:"cycle"`
	Net      string              `json:"net,omitempty"`
	Cores    int                 `json:"cores,omitempty"`
	Tiles    int                 `json:"tiles,omitempty"`
	Progress Progress            `json:"progress"`
	Engine   probe.EngineIntro   `json:"engine"`
	Pools    probe.PoolIntro     `json:"pools"`
	Channels []sbus.ChannelIntro `json:"channels"`
	Routers  []RouterInfo        `json:"routers"`
	Packets  []PacketInfo        `json:"packets"`
}

// WriteJSON emits the snapshot as one JSON document, the encoding/json
// rendering of its own fields. obscheck.TestRecordInvariants decodes it
// back into a Snapshot. The document reaches w in one Write.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
