package flightrec

import (
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

// ndjsonRecord tags one dump line with its record type so consumers can
// dispatch without schema knowledge; every line carries "rec".
func writeRecord(w io.Writer, rec string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	// Splice the record tag ahead of the payload's own fields so each
	// line stays a single flat object.
	if len(raw) < 2 || raw[0] != '{' {
		return fmt.Errorf("flightrec: record %q did not marshal to an object", rec)
	}
	if _, err := fmt.Fprintf(w, "{\"rec\":%q", rec); err != nil {
		return err
	}
	if len(raw) > 2 { // non-empty object: append its fields after a comma
		if _, err := w.Write([]byte{','}); err != nil {
			return err
		}
	}
	if _, err := w.Write(raw[1:]); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// WriteNDJSON emits the snapshot as newline-delimited JSON: a "meta"
// record first, then one typed record per logical unit. cmd/obscheck
// validates the framing.
func (s *Snapshot) WriteNDJSON(w io.Writer) error {
	meta := struct {
		Reason      string   `json:"reason"`
		Cycle       uint64   `json:"cycle"`
		Net         string   `json:"net,omitempty"`
		Cores       int      `json:"cores,omitempty"`
		Tiles       int      `json:"tiles,omitempty"`
		Trips       uint64   `json:"watchdog_trips"`
		TripReasons []string `json:"trip_reasons,omitempty"`
	}{s.Reason, s.Cycle, s.Net, s.Cores, s.Tiles, s.Trips, s.TripReasons}
	if err := writeRecord(w, "meta", meta); err != nil {
		return err
	}
	if err := writeRecord(w, "progress", s.Progress); err != nil {
		return err
	}
	if err := writeRecord(w, "engine", s.Engine); err != nil {
		return err
	}
	if err := writeRecord(w, "pools", s.Pools); err != nil {
		return err
	}
	for i := range s.Channels {
		if err := writeRecord(w, "channel", &s.Channels[i]); err != nil {
			return err
		}
	}
	for i := range s.Routers {
		if err := writeRecord(w, "router", &s.Routers[i]); err != nil {
			return err
		}
	}
	for i := range s.Packets {
		if err := writeRecord(w, "packet", &s.Packets[i]); err != nil {
			return err
		}
	}
	for i := range s.Starved {
		if err := writeRecord(w, "starved", &s.Starved[i]); err != nil {
			return err
		}
	}
	if len(s.FrameNames) > 0 {
		namesRec := struct {
			Names []string `json:"names"`
		}{s.FrameNames}
		if err := writeRecord(w, "frame_names", namesRec); err != nil {
			return err
		}
	}
	for i := range s.Frames {
		if err := writeRecord(w, "frame", &s.Frames[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteText emits a human-readable rendering of the snapshot. Routers
// and frames print only when occupied/nonzero so a wedge dump leads
// with the interesting state.
func (s *Snapshot) WriteText(w io.Writer) error {
	pr := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pr("=== flight recorder dump: %s @ cycle %d ===\n", s.Reason, s.Cycle); err != nil {
		return err
	}
	if s.Net != "" {
		if err := pr("net=%s cores=%d tiles=%d\n", s.Net, s.Cores, s.Tiles); err != nil {
			return err
		}
	}
	if err := pr("progress: generated=%d injected=%d dropped=%d ejected=%d src_queued=%d buffered=%d ch_queued=%d\n",
		s.Progress.Generated, s.Progress.Injected, s.Progress.Dropped, s.Progress.Ejected,
		s.Progress.SrcQueued, s.Progress.BufferedFlits, s.Progress.ChannelQueued); err != nil {
		return err
	}
	if err := pr("watchdog: trips=%d\n", s.Trips); err != nil {
		return err
	}
	for _, r := range s.TripReasons {
		if err := pr("  trip: %s\n", r); err != nil {
			return err
		}
	}
	if err := pr("engine: cycles=%d fast_forwarded=%d\n", s.Engine.Cycles, s.Engine.FastForwardedCy); err != nil {
		return err
	}
	for _, ph := range s.Engine.Phases {
		if err := pr("  phase %-10s ticks=%d wakes(event=%d timer=%d spurious=%d) awake_cy=%d\n",
			ph.Phase, ph.Ticks, ph.WakesEvent, ph.WakesTimer, ph.WakesSpurious, ph.AwakeCycleSum); err != nil {
			return err
		}
	}
	if err := pr("pools: gets=%d fresh=%d recycled=%d high_water=%d\n",
		s.Pools.Gets, s.Pools.Fresh, s.Pools.Recycled, s.Pools.HighWater); err != nil {
		return err
	}
	if err := pr("channels: %d\n", len(s.Channels)); err != nil {
		return err
	}
	for i := range s.Channels {
		c := &s.Channels[i]
		if err := pr("  [%d] %s.%s token=%d locked(w=%d vc=%d rx=%d) busy_until=%d queued=%d inflight=%d qhw=%d tx=%d busy_cy=%d token_moves=%d credit_stall=%d\n",
			i, c.Kind, c.Name, c.Token, c.LockedWriter, c.LockedVC, c.LockedRx,
			c.BusyUntilCy, c.Queued, c.InFlight, c.QueueHighWater,
			c.Transmitted, c.BusyCy, c.TokenMoves, c.CreditStallCy); err != nil {
			return err
		}
		for _, wr := range c.Writers {
			if wr.Queued == 0 && !wr.Waiting && wr.MaxWaitCy == 0 {
				continue
			}
			if err := pr("    writer %d (router %d): queued=%d waiting=%v since=%d max_wait=%d head=%d(%d->%d)\n",
				wr.Index, wr.ID, wr.Queued, wr.Waiting, wr.WaitingSinceCy, wr.MaxWaitCy,
				wr.HeadPkt, wr.HeadSrc, wr.HeadDst); err != nil {
				return err
			}
		}
	}
	occupied := 0
	for i := range s.Routers {
		if s.Routers[i].Buffered > 0 {
			occupied++
		}
	}
	if err := pr("routers: %d total, %d occupied\n", len(s.Routers), occupied); err != nil {
		return err
	}
	for i := range s.Routers {
		r := &s.Routers[i]
		if r.Buffered == 0 {
			continue
		}
		if err := pr("  router %d: buffered=%d high_water=%d\n", r.ID, r.Buffered, r.BufHighWater); err != nil {
			return err
		}
	}
	if err := pr("in-flight measured packets: %d\n", len(s.Packets)); err != nil {
		return err
	}
	for i := range s.Packets {
		p := &s.Packets[i]
		if err := pr("  pkt %d %d->%d age=%d phase=%s since=%d\n",
			p.ID, p.Src, p.Dst, p.AgeCy, p.Phase, p.MarkCy); err != nil {
			return err
		}
	}
	if err := pr("starved writers: %d\n", len(s.Starved)); err != nil {
		return err
	}
	for i := range s.Starved {
		st := &s.Starved[i]
		if err := pr("  %s %s writer %d (router %d) waiting %d cy; token at writer %d (router %d), lock w=%d (router %d) vc=%d head=%d(%d->%d)\n",
			st.Kind, st.Channel, st.Writer, st.WriterID, st.WaitingCy,
			st.TokenAt, st.TokenOwnerID, st.LockedWriter, st.LockedWriterID, st.LockedVC,
			st.HeadPkt, st.HeadSrc, st.HeadDst); err != nil {
			return err
		}
	}
	if len(s.Frames) > 0 {
		if err := pr("flight recorder tail: %d frames x %d metrics\n", len(s.Frames), len(s.FrameNames)); err != nil {
			return err
		}
		for i := range s.Frames {
			f := &s.Frames[i]
			if err := pr("  cycle %d:", f.Cycle); err != nil {
				return err
			}
			for j, v := range f.Values {
				if stats.ApproxZero(v, 0) {
					continue
				}
				name := fmt.Sprintf("#%d", j)
				if j < len(s.FrameNames) {
					name = s.FrameNames[j]
				}
				if err := pr(" %s=%g", name, v); err != nil {
					return err
				}
			}
			if err := pr("\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
