package flightrec

import (
	"ownsim/internal/noc"
	"ownsim/internal/sbus"
)

// writerWait is one channel writer's token-wait state: waiting marks a
// writer with queued flits but no grant, since is the cycle the current
// wait opened, max the longest completed wait.
type writerWait struct {
	waiting    bool
	since, max uint64
}

// WaitTable rebuilds every channel writer's token-wait state from the
// channels' EvWait/EvGrant events: a wait opens when a writer's first
// flit queues up behind another holder (or its tail releases with more
// queued) and closes at that writer's next grant. The watchdog's
// starvation detector, the stall.starved_writers gauge and the state
// dumps read it; channels are indexed in network channel order, writers
// by ring position. A nil table (no flight recorder) reports nothing.
type WaitTable struct {
	chans [][]writerWait
}

// NewWaitTable subscribes a table to the given channels. Call it after
// every writer is attached and before simulation.
func NewWaitTable(chans []*sbus.Channel) *WaitTable {
	t := &WaitTable{chans: make([][]writerWait, len(chans))}
	for i, ch := range chans {
		ws := make([]writerWait, ch.NumWriters())
		t.chans[i] = ws
		ch.Tap.Subscribe(noc.Mask(noc.EvWait, noc.EvGrant), func(e noc.Event) { ws[e.A].observe(e) })
	}
	return t
}

func (w *writerWait) observe(e noc.Event) {
	if e.Kind == noc.EvWait {
		w.waiting, w.since = true, e.Cycle
		return
	}
	// The winner's token wait closes at the grant.
	if w.waiting {
		if wait := e.Cycle - w.since; wait > w.max {
			w.max = wait
		}
		w.waiting = false
	}
}

// OldestWaiter returns the index and wait-start cycle of the writer on
// channel ch that has been waiting for the token the longest (ties break
// on the lower index), or (-1, 0) when no writer waits.
func (t *WaitTable) OldestWaiter(ch int) (wi int, since uint64) {
	if t == nil {
		return -1, 0
	}
	wi = -1
	for i, w := range t.chans[ch] {
		if w.waiting && (wi < 0 || w.since < since) {
			wi, since = i, w.since
		}
	}
	return wi, since
}

// StarvedWriters counts, over all channels, the writers whose current
// token wait at the given cycle exceeds budget cycles.
func (t *WaitTable) StarvedWriters(cycle, budget uint64) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, ws := range t.chans {
		for _, w := range ws {
			if w.waiting && cycle-w.since > budget {
				n++
			}
		}
	}
	return n
}

// Fill copies channel ch's wait state into its introspection snapshot,
// so dumps show who is waiting, since when, and each writer's worst wait.
func (t *WaitTable) Fill(ch int, ci *sbus.ChannelIntro) {
	if t == nil {
		return
	}
	for i, w := range t.chans[ch] {
		wr := &ci.Writers[i]
		wr.Waiting, wr.MaxWaitCy = w.waiting, w.max
		if w.waiting {
			wr.WaitingSinceCy = w.since
		}
	}
}
