package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ownsim/internal/probe"
	"ownsim/internal/sbus"
	"ownsim/internal/stats"
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
// router occupancy, in-flight measured packets with their span phase,
// and the flight-recorder tail. Who waits for a token, since when, and
// who holds it is in Channels: the channel's Token and lock, and each
// writer's wait state as the channel keeps it. All slices are
// index-ordered, so two snapshots of identical simulated state marshal
// to identical bytes.
type Snapshot struct {
	Reason     string              `json:"reason"`
	Cycle      uint64              `json:"cycle"`
	Net        string              `json:"net,omitempty"`
	Cores      int                 `json:"cores,omitempty"`
	Tiles      int                 `json:"tiles,omitempty"`
	Progress   Progress            `json:"progress"`
	Engine     probe.EngineIntro   `json:"engine"`
	Pools      probe.PoolIntro     `json:"pools"`
	Channels   []sbus.ChannelIntro `json:"channels"`
	Routers    []RouterInfo        `json:"routers"`
	Packets    []PacketInfo        `json:"packets"`
	FrameNames []string            `json:"frame_names,omitempty"`
	Frames     []Frame             `json:"frames,omitempty"`
}

// WriteJSON emits the snapshot as one JSON document, the encoding/json
// rendering of its own fields. obscheck.TestRecordInvariants decodes it
// back into a Snapshot. Nothing reaches w unless the whole snapshot
// marshals (a NaN metric does not), and then in one Write.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteText emits a human-readable rendering of the snapshot. Routers
// and frames print only when occupied/nonzero so a wedge dump leads
// with the interesting state. Like WriteJSON it reaches w in one Write.
func (s *Snapshot) WriteText(w io.Writer) error {
	var b bytes.Buffer
	pr := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	pr("=== flight recorder dump: %s @ cycle %d ===\n", s.Reason, s.Cycle)
	if s.Net != "" {
		pr("net=%s cores=%d tiles=%d\n", s.Net, s.Cores, s.Tiles)
	}
	pr("progress: generated=%d injected=%d dropped=%d ejected=%d src_queued=%d buffered=%d ch_queued=%d\n",
		s.Progress.Generated, s.Progress.Injected, s.Progress.Dropped, s.Progress.Ejected,
		s.Progress.SrcQueued, s.Progress.BufferedFlits, s.Progress.ChannelQueued)
	pr("engine: cycles=%d fast_forwarded=%d\n", s.Engine.Cycles, s.Engine.FastForwardedCy)
	for _, ph := range s.Engine.Phases {
		pr("  phase %-10s ticks=%d wakes(event=%d timer=%d spurious=%d) awake_cy=%d\n",
			ph.Phase, ph.Ticks, ph.WakesEvent, ph.WakesTimer, ph.WakesSpurious, ph.AwakeCycleSum)
	}
	pr("pools: gets=%d fresh=%d recycled=%d high_water=%d\n",
		s.Pools.Gets, s.Pools.Fresh, s.Pools.Recycled, s.Pools.HighWater)
	pr("channels: %d\n", len(s.Channels))
	for i := range s.Channels {
		c := &s.Channels[i]
		pr("  [%d] %s.%s token=%d locked(w=%d vc=%d rx=%d) busy_until=%d queued=%d inflight=%d qhw=%d tx=%d busy_cy=%d token_moves=%d credit_stall=%d\n",
			i, c.Kind, c.Name, c.Token, c.LockedWriter, c.LockedVC, c.LockedRx,
			c.BusyUntilCy, c.Queued, c.InFlight, c.QueueHighWater,
			c.Transmitted, c.BusyCy, c.TokenMoves, c.CreditStallCy)
		for _, wr := range c.Writers {
			if wr.Queued == 0 && !wr.Waiting && wr.MaxWaitCy == 0 {
				continue
			}
			pr("    writer %d (router %d): queued=%d waiting=%v since=%d max_wait=%d head=%d(%d->%d)\n",
				wr.Index, wr.ID, wr.Queued, wr.Waiting, wr.WaitingSinceCy, wr.MaxWaitCy,
				wr.HeadPkt, wr.HeadSrc, wr.HeadDst)
		}
	}
	occupied := 0
	for i := range s.Routers {
		if s.Routers[i].Buffered > 0 {
			occupied++
		}
	}
	pr("routers: %d total, %d occupied\n", len(s.Routers), occupied)
	for i := range s.Routers {
		r := &s.Routers[i]
		if r.Buffered == 0 {
			continue
		}
		pr("  router %d: buffered=%d high_water=%d\n", r.ID, r.Buffered, r.BufHighWater)
	}
	pr("in-flight measured packets: %d\n", len(s.Packets))
	for i := range s.Packets {
		p := &s.Packets[i]
		pr("  pkt %d %d->%d age=%d phase=%s since=%d\n",
			p.ID, p.Src, p.Dst, p.AgeCy, p.Phase, p.MarkCy)
	}
	// Starved writers are the channel writers that wait for the token,
	// with the token's and the lock's owners read off the same record.
	var starved bytes.Buffer
	nstarved := 0
	for i := range s.Channels {
		c := &s.Channels[i]
		for _, wr := range c.Writers {
			if !wr.Waiting {
				continue
			}
			nstarved++
			fmt.Fprintf(&starved, "  %s %s writer %d (router %d) waiting %d cy; token at writer %d (router %d), lock w=%d (router %d) vc=%d head=%d(%d->%d)\n",
				c.Kind, c.Name, wr.Index, wr.ID, s.Cycle-wr.WaitingSinceCy,
				c.Token, writerRouter(c, c.Token), c.LockedWriter, writerRouter(c, c.LockedWriter), c.LockedVC,
				wr.HeadPkt, wr.HeadSrc, wr.HeadDst)
		}
	}
	pr("starved writers: %d\n", nstarved)
	b.Write(starved.Bytes())
	if len(s.Frames) > 0 {
		pr("flight recorder tail: %d frames x %d metrics\n", len(s.Frames), len(s.FrameNames))
		for i := range s.Frames {
			f := &s.Frames[i]
			pr("  cycle %d:", f.Cycle)
			for j, v := range f.Values {
				if stats.ApproxZero(v, 0) {
					continue
				}
				name := fmt.Sprintf("#%d", j)
				if j < len(s.FrameNames) {
					name = s.FrameNames[j]
				}
				pr(" %s=%g", name, v)
			}
			pr("\n")
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// writerRouter is the router ID of writer wi of channel c, or -1 when
// wi names no writer (an unlocked channel's LockedWriter).
func writerRouter(c *sbus.ChannelIntro, wi int) int {
	if wi < 0 || wi >= len(c.Writers) {
		return -1
	}
	return c.Writers[wi].ID
}
