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

// StarvedInfo names one writer currently waiting for a channel token,
// with the token's current owner and lock holder so a starvation dump
// answers "who is starving and who is holding the medium".
type StarvedInfo struct {
	Channel        string `json:"channel"`
	Kind           string `json:"kind"`
	Writer         int    `json:"writer"`
	WriterID       int    `json:"writer_router"`
	WaitingCy      uint64 `json:"waiting_cy"`
	TokenAt        int    `json:"token_at"`
	TokenOwnerID   int    `json:"token_router"`
	LockedWriter   int    `json:"locked_writer"`
	LockedWriterID int    `json:"locked_router"`
	LockedVC       int    `json:"locked_vc"`
	HeadPkt        uint64 `json:"head_pkt,omitempty"`
	HeadSrc        int    `json:"head_src,omitempty"`
	HeadDst        int    `json:"head_dst,omitempty"`
}

// CollectStarved lists every writer currently waiting for a token on
// the given channels (network channel order) according to their wait
// table, annotated with token and lock ownership. A nil table (no
// flight recorder) yields nothing.
func CollectStarved(cycle uint64, chans []*sbus.Channel, waits *WaitTable) []StarvedInfo {
	var out []StarvedInfo
	for i, ch := range chans {
		ci := ch.Introspect()
		waits.Fill(i, &ci)
		for _, w := range ci.Writers {
			if !w.Waiting {
				continue
			}
			out = append(out, StarvedInfo{
				Channel:        ci.Name,
				Kind:           ci.Kind,
				Writer:         w.Index,
				WriterID:       w.ID,
				WaitingCy:      cycle - w.WaitingSinceCy,
				TokenAt:        ci.Token,
				TokenOwnerID:   ch.WriterID(ci.Token),
				LockedWriter:   ci.LockedWriter,
				LockedWriterID: ch.WriterID(ci.LockedWriter),
				LockedVC:       ci.LockedVC,
				HeadPkt:        w.HeadPkt,
				HeadSrc:        w.HeadSrc,
				HeadDst:        w.HeadDst,
			})
		}
	}
	return out
}

// Snapshot is a full diagnostic state dump: liveness counters, engine
// and pool introspection, every shared channel's arbitration state,
// router occupancy, in-flight measured packets with their span phase,
// starving writers with token ownership, and the flight-recorder tail.
// All slices are index-ordered, so two snapshots of identical simulated
// state marshal to identical bytes.
type Snapshot struct {
	Reason      string              `json:"reason"`
	Cycle       uint64              `json:"cycle"`
	Net         string              `json:"net,omitempty"`
	Cores       int                 `json:"cores,omitempty"`
	Tiles       int                 `json:"tiles,omitempty"`
	Trips       uint64              `json:"watchdog_trips"`
	TripReasons []string            `json:"trip_reasons,omitempty"`
	Progress    Progress            `json:"progress"`
	Engine      probe.EngineIntro   `json:"engine"`
	Pools       probe.PoolIntro     `json:"pools"`
	Channels    []sbus.ChannelIntro `json:"channels"`
	Routers     []RouterInfo        `json:"routers"`
	Packets     []PacketInfo        `json:"packets"`
	Starved     []StarvedInfo       `json:"starved"`
	FrameNames  []string            `json:"frame_names,omitempty"`
	Frames      []Frame             `json:"frames,omitempty"`
}

// writeRecord tags one dump line with its record type so consumers can
// dispatch without schema knowledge; every line carries "rec".
func writeRecord(b *bytes.Buffer, rec string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	// Splice the record tag ahead of the payload's own fields so each
	// line stays a single flat object.
	if len(raw) < 2 || raw[0] != '{' {
		return fmt.Errorf("flightrec: record %q did not marshal to an object", rec)
	}
	fmt.Fprintf(b, "{\"rec\":%q", rec)
	if len(raw) > 2 { // non-empty object: append its fields after a comma
		b.WriteByte(',')
	}
	b.Write(raw[1:])
	b.WriteByte('\n')
	return nil
}

// WriteNDJSON emits the snapshot as newline-delimited JSON: a "meta"
// record first, then one typed record per logical unit.
// obscheck.TestRecordInvariants validates the framing. The dump is built in memory and reaches w in one
// Write, whose error is the one returned; a record that does not marshal
// (a NaN metric) writes nothing.
func (s *Snapshot) WriteNDJSON(w io.Writer) error {
	var b bytes.Buffer
	var err error
	record := func(rec string, payload any) {
		if err == nil {
			err = writeRecord(&b, rec, payload)
		}
	}
	record("meta", struct {
		Reason      string   `json:"reason"`
		Cycle       uint64   `json:"cycle"`
		Net         string   `json:"net,omitempty"`
		Cores       int      `json:"cores,omitempty"`
		Tiles       int      `json:"tiles,omitempty"`
		Trips       uint64   `json:"watchdog_trips"`
		TripReasons []string `json:"trip_reasons,omitempty"`
	}{s.Reason, s.Cycle, s.Net, s.Cores, s.Tiles, s.Trips, s.TripReasons})
	record("progress", s.Progress)
	record("engine", s.Engine)
	record("pools", s.Pools)
	for i := range s.Channels {
		record("channel", &s.Channels[i])
	}
	for i := range s.Routers {
		record("router", &s.Routers[i])
	}
	for i := range s.Packets {
		record("packet", &s.Packets[i])
	}
	for i := range s.Starved {
		record("starved", &s.Starved[i])
	}
	if len(s.FrameNames) > 0 {
		record("frame_names", struct {
			Names []string `json:"names"`
		}{s.FrameNames})
	}
	for i := range s.Frames {
		record("frame", &s.Frames[i])
	}
	if err != nil {
		return err
	}
	_, err = w.Write(b.Bytes())
	return err
}

// WriteText emits a human-readable rendering of the snapshot. Routers
// and frames print only when occupied/nonzero so a wedge dump leads
// with the interesting state. Like WriteNDJSON it reaches w in one Write.
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
	pr("watchdog: trips=%d\n", s.Trips)
	for _, r := range s.TripReasons {
		pr("  trip: %s\n", r)
	}
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
	pr("starved writers: %d\n", len(s.Starved))
	for i := range s.Starved {
		st := &s.Starved[i]
		pr("  %s %s writer %d (router %d) waiting %d cy; token at writer %d (router %d), lock w=%d (router %d) vc=%d head=%d(%d->%d)\n",
			st.Kind, st.Channel, st.Writer, st.WriterID, st.WaitingCy,
			st.TokenAt, st.TokenOwnerID, st.LockedWriter, st.LockedWriterID, st.LockedVC,
			st.HeadPkt, st.HeadSrc, st.HeadDst)
	}
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
