// Package sbus implements the shared serialized channel with token
// arbitration that underlies both the photonic waveguide buses (MWSR: many
// writers, one home-tile reader) and the wireless channels (point-to-point
// in OWN-256; SWMR multicast with a rotating transmit token in OWN-1024).
//
// A Channel has W writers and R receivers. Writers hold per-VC queues fed
// by an upstream router output port; the channel grants the medium to one
// (writer, VC) pair at a time, holds it for a whole packet (head through
// tail, as in Corona-style token arbitration), serializes each flit for
// SerializeCy cycles and delivers it PropCy cycles later to the receiver
// selected by SelectRx. Moving the grant token from writer i to writer j
// costs ((j - i - 1) mod W + 1) * TokenHopCy cycles, which is the "token
// transfer consumes a few extra cycles" effect the paper observes on the
// optical crossbar: the ring distance, except that i itself is a full lap
// away. An idle token rests at its last grantee (at writer 0 after
// Reset), so a lone packet from the previous holder pays W * TokenHopCy.
package sbus

import (
	"fmt"
	"math/bits"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// Channel is one shared medium.
type Channel struct {
	// Name aids debugging ("cluster2/home5", "wl A0->B2", ...).
	Name string
	// SerializeCy is the cycles the medium is occupied per flit.
	SerializeCy int
	// PropCy is the additional flight time after serialization.
	PropCy int
	// TokenHopCy is the token-passing cost per writer-ring position.
	TokenHopCy int
	// SelectRx maps a packet to the receiver index that must accept it.
	// Required when there is more than one receiver.
	SelectRx func(p *noc.Packet) int
	// Kind labels the physical medium ("photonic", "wireless"); the
	// builders set it and telemetry/tracing report it.
	Kind string
	// Class further labels wireless channels with the paper's
	// link-distance class ("C2C", "E2E", "SR"); empty for photonic buses
	// and unclassified media. Latency attribution keys transit phases
	// off it.
	Class string
	// Transmitted counts the flits sent; Stats reports it and the power
	// meter prices transmit energy from it.
	Transmitted uint64
	// Tap emits the arbitration events: EvGrant when the channel locks
	// onto a packet, EvFlitTx per serialized flit (A is the receiver
	// index), EvRelease when the tail flit frees the whole-packet lock,
	// and EvDeliver when a flit lands in a receiver's input buffer (the
	// only observation point for delivery-side FIFO order).
	Tap noc.Tap

	writers []*Writer
	rxs     []*Rx
	waker   *sim.Waker

	// Writer storage, carved by AddWriter from blocks of 1, 2, 4, ...
	// writers, so 15 or 255 writers fill them exactly: spare is what is
	// left of the current Writer block, rings[k] holds the queues of
	// writers 2^k-1 .. 2^(k+1)-2 (nvc intrusive FIFOs each, one pointer
	// apiece whatever the depth), and fifos the flit count of writer wi's
	// VC vc at wi*nvc+vc. Every writer of a channel has the same nvc and
	// depth.
	nvc, depth int
	spare      []Writer
	rings      [][]noc.FlitFIFO
	fifos      []uint8

	token       int
	lockedW     int // -1 when free
	lockedVC    int
	lockedRx    int
	busyUntil   uint64
	totalQueued int

	// stalledAt is the cycle of the last tick that found the locked packet's
	// receiver out of credits, while that stall lasts (0: none; the tick
	// that takes the lock never transmits, so no stall is found on cycle 0).
	// Only a returned credit can end it; the cycles slept through until
	// then are charged at the next tick.
	stalledAt uint64

	inflight noc.TimedQueue[flight]

	// Telemetry, exposed through Stats.
	busyCy      uint64
	tokenMoves  uint64
	creditStall uint64
	// qHighWater is the peak totalQueued ever reached (always on: one
	// compare per push; occupancy high-water diagnostics read it).
	qHighWater int
}

// NewChannel creates an empty channel; add writers and receivers before
// simulation.
func NewChannel(name string, serializeCy, propCy, tokenHopCy int) *Channel {
	if serializeCy < 1 {
		serializeCy = 1
	}
	if propCy < 0 {
		propCy = 0
	}
	return &Channel{
		Name:        name,
		SerializeCy: serializeCy,
		PropCy:      propCy,
		TokenHopCy:  tokenHopCy,
		lockedW:     -1,
	}
}

// Reset rewinds the channel, its writers and its receivers to what
// NewChannel, AddWriter and AddRx left: queues and medium empty, token at
// writer 0, no lock, every credit home, telemetry at zero. Labels,
// wiring, the tap and the waker stay.
func (c *Channel) Reset() {
	for _, ring := range c.rings {
		clear(ring)
	}
	clear(c.fifos)
	for _, w := range c.writers {
		w.rrVC = 0
		w.waitFrom, w.maxWait = 0, 0
	}
	for _, r := range c.rxs {
		for i := range r.credits {
			r.credits[i] = r.maxCred
		}
	}
	c.inflight.Reset()
	c.token, c.lockedW, c.lockedVC, c.lockedRx = 0, -1, 0, 0
	c.busyUntil, c.totalQueued, c.stalledAt, c.qHighWater = 0, 0, 0, 0
	c.Transmitted, c.busyCy, c.tokenMoves, c.creditStall = 0, 0, 0, 0
}

// Writer is one transmit port on the channel; it implements noc.Conduit
// for the upstream router output port, which sees the per-VC queue depth
// as its credit count.
type Writer struct {
	ch      *Channel
	src     noc.CreditReceiver
	idx     int32
	srcPort int32
	// id is a stable external label (the upstream router ID) the
	// builders stamp via SetID; -1 when unstamped. Dumps use it to name
	// the starved tile.
	id   int32
	rrVC uint8
	// waitFrom is the cycle the writer's current token wait opened and
	// maxWait the longest wait closed so far (see waiting).
	waitFrom, maxWait uint64
}

// SetID labels the writer with a stable external identifier — the
// builders stamp the upstream router ID — so diagnostics can name the
// tile behind a writer index. Unstamped writers report -1.
func (w *Writer) SetID(id int) { w.id = int32(id) }

// Index returns the writer's index on its channel.
func (w *Writer) Index() int { return int(w.idx) }

// AddWriter attaches a writer whose upstream output port is (src,
// srcPort), with numVCs queues of queueDepth flits each (both at most
// 255, and the same for every writer of the channel). The upstream port
// must be connected with exactly queueDepth credits per VC.
func (c *Channel) AddWriter(src noc.CreditReceiver, srcPort, numVCs, queueDepth int) *Writer {
	if len(c.writers) == 0 {
		c.nvc, c.depth = numVCs, queueDepth
	}
	if numVCs != c.nvc || queueDepth != c.depth || numVCs < 1 || numVCs > 255 || queueDepth < 1 || queueDepth > 255 {
		panic(fmt.Sprintf("sbus %s: writer with %d VCs of depth %d (channel: %d of %d)", c.Name, numVCs, queueDepth, c.nvc, c.depth))
	}
	if len(c.spare) == 0 {
		// The next block is one writer larger than all before it.
		k := len(c.writers) + 1
		c.spare = make([]Writer, k)
		c.rings = append(c.rings, make([]noc.FlitFIFO, k*numVCs))
		c.fifos = append(make([]uint8, 0, len(c.fifos)+k*numVCs), c.fifos...)
		c.writers = append(make([]*Writer, 0, len(c.writers)+k), c.writers...)
	}
	w := &c.spare[0]
	*w, c.spare = Writer{ch: c, src: src, idx: int32(len(c.writers)), srcPort: int32(srcPort), id: -1}, c.spare[1:]
	c.writers = append(c.writers, w)
	c.fifos = c.fifos[:len(c.fifos)+numVCs] // zero: grown with the block
	return w
}

// Send implements noc.Conduit.
func (w *Writer) Send(f *noc.Flit) {
	c := w.ch
	q := c.queue(int(w.idx), f.VC)
	if int(*q.n) == c.depth {
		panic(fmt.Sprintf("sbus %s: writer %d vc %d queue overflow", c.Name, w.idx, f.VC))
	}
	q.push(f)
	c.totalQueued++
	if c.totalQueued > c.qHighWater {
		c.qHighWater = c.totalQueued
	}
	if c.waker != nil {
		// A writer whose first flit just arrived while it does not hold
		// the lock starts waiting for the token now; the wait closes at
		// its grant. The timestamp needs the engine clock, so only
		// waker-driven channels keep it.
		if c.lockedW != int(w.idx) && *q.n == 1 && c.queued(int(w.idx)) == 1 {
			w.waitFrom = c.waker.Now()
		}
		c.waker.Wake()
	}
}

// Rx is one receive port: it forwards delivered flits into a router input
// port and implements noc.CreditReturner for that port's buffer slots.
type Rx struct {
	ch      *Channel
	idx     int
	dst     noc.FlitReceiver
	dstPort int
	credits []int
	maxCred int
}

// AddRx attaches a receiver delivering into (dst, dstPort) with
// creditsPerVC buffer slots per VC. Install the returned Rx as the
// upstream of that input port.
func (c *Channel) AddRx(dst noc.FlitReceiver, dstPort, numVCs, creditsPerVC int) *Rx {
	r := &Rx{ch: c, idx: len(c.rxs), dst: dst, dstPort: dstPort, credits: make([]int, numVCs), maxCred: creditsPerVC}
	for i := range r.credits {
		r.credits[i] = creditsPerVC
	}
	c.rxs = append(c.rxs, r)
	return r
}

// ReturnCredit implements noc.CreditReturner. A channel in a credit stall
// may be asleep for want of this credit, so it is woken.
func (r *Rx) ReturnCredit(vc int) {
	r.credits[vc]++
	if r.credits[vc] > r.maxCred {
		panic(fmt.Sprintf("sbus %s: rx %d vc %d credit overflow", r.ch.Name, r.idx, vc))
	}
	if c := r.ch; c.stalledAt != 0 && c.waker != nil {
		c.waker.Wake()
	}
}

// flight is a flit on the medium, bound for receiver rx.
type flight struct {
	f  *noc.Flit
	rx int
}

// SetWaker installs the channel's scheduling handle (from
// sim.Engine.RegisterWakeable). Without one the channel is a plain
// every-cycle Ticker; with one it sleeps when fully idle, through
// serialization windows (during which Tick has no side effects), and
// while its locked packet is blocked on a wormhole gap or on receiver
// credits, until the Send or the ReturnCredit that ends that. The
// per-cycle CreditStallCy telemetry is charged by interval across the
// sleep (transmitLocked, Stats).
func (c *Channel) SetWaker(w *sim.Waker) { c.waker = w }

// Tick implements sim.Ticker (Delivery phase): deliver due flits, then
// advance arbitration/serialization.
func (c *Channel) Tick(cycle uint64) {
	blocked := c.tick(cycle)
	if c.waker != nil {
		c.reschedule(cycle, blocked)
	}
}

// tick reports whether it found the locked packet blocked: unable to move
// until its next flit arrives from upstream or the receiver returns a
// credit.
func (c *Channel) tick(cycle uint64) (blocked bool) {
	for {
		due, ok := c.inflight.Peek()
		if !ok || due.At > cycle {
			break
		}
		c.inflight.Pop()
		fl := due.V
		if c.Tap.Wants(noc.EvDeliver) {
			c.Tap.Emit(noc.Event{Kind: noc.EvDeliver, Cycle: cycle, Pkt: fl.f.Pkt, Flit: fl.f, A: fl.rx})
		}
		c.rxs[fl.rx].dst.ReceiveFlit(c.rxs[fl.rx].dstPort, fl.f)
	}
	if c.busyUntil > cycle {
		return false
	}
	if c.lockedW >= 0 {
		return !c.transmitLocked(cycle)
	}
	if c.totalQueued > 0 {
		c.acquire(cycle)
	}
	return false
}

// reschedule sleeps through provably side-effect-free windows. A channel
// with a lock or queued work must run at busyUntil (or next cycle if not
// busy), unless this tick found it blocked: then no tick can differ until
// the writer's Send that closes a wormhole gap or the receiver's
// ReturnCredit that ends a credit stall, and both wake it. Deliveries may
// come due earlier either way.
func (c *Channel) reschedule(cycle uint64, blocked bool) {
	next := uint64(0)
	if !blocked && (c.lockedW >= 0 || c.totalQueued > 0) {
		next = cycle + 1
		if c.busyUntil > next {
			next = c.busyUntil
		}
	}
	if fl, ok := c.inflight.Peek(); ok && (next == 0 || fl.At < next) {
		next = fl.At
	}
	if next == cycle+1 {
		return // stay awake
	}
	c.waker.Sleep()
	if next != 0 {
		c.waker.WakeAt(next)
	}
}

// transmitLocked sends the next flit of the packet holding the channel,
// if it has arrived and the receiver has a buffer slot, and reports
// whether it did. Credit stalls are counted one per cycle: this tick's
// here, and those of the cycles slept through since the last stalled tick
// (none when ticked every cycle) before anything else.
func (c *Channel) transmitLocked(cycle uint64) bool {
	w := c.writers[c.lockedW]
	q := c.queue(c.lockedW, c.lockedVC)
	if c.stalledAt != 0 {
		c.creditStall += cycle - c.stalledAt - 1
		c.stalledAt = 0
	}
	if q.fifo.Empty() {
		return false // wormhole gap: body flits still upstream
	}
	f := q.fifo.Front()
	rx := c.rxs[c.lockedRx]
	if rx.credits[f.VC] <= 0 {
		c.creditStall++
		c.stalledAt = cycle
		return false
	}
	q.pop()
	c.totalQueued--
	c.Transmitted++
	c.busyCy += uint64(c.SerializeCy)
	rx.credits[f.VC]--
	if w.src != nil {
		w.src.ReceiveCredit(int(w.srcPort), c.lockedVC)
	}
	c.busyUntil = cycle + uint64(c.SerializeCy)
	c.inflight.Push(cycle+uint64(c.SerializeCy)+uint64(c.PropCy), flight{f, c.lockedRx})
	if c.Tap.Wants(noc.EvFlitTx) {
		c.Tap.Emit(noc.Event{Kind: noc.EvFlitTx, Cycle: cycle, Pkt: f.Pkt, Flit: f, A: c.lockedRx})
	}
	if f.IsTail() {
		c.lockedW = -1
		// A writer with more packets pending goes straight back to
		// waiting for re-arbitration; one with none is not waiting, and
		// its next first flit opens its next wait.
		w.waitFrom = cycle
		if c.Tap.Wants(noc.EvRelease) {
			c.Tap.Emit(noc.Event{Kind: noc.EvRelease, Cycle: cycle, Pkt: f.Pkt, A: int(w.idx)})
		}
	}
	return true
}

// acquire moves the token to the next writer with a pending packet and
// locks the channel onto one of its VCs.
func (c *Channel) acquire(cycle uint64) {
	n := len(c.writers)
	// The token advances past the previous holder first (d starts at 1),
	// wrapping all the way around back to it; this is what keeps a
	// single busy writer from monopolizing the medium.
	for d := 1; d <= n; d++ {
		wi := (c.token + d) % n
		vc := c.nextPendingVC(wi)
		if vc < 0 {
			continue
		}
		f := c.queue(wi, vc).fifo.Front()
		if !f.IsHead() {
			panic(fmt.Sprintf("sbus %s: writer %d vc %d front is %v, want head", c.Name, wi, vc, f.Type))
		}
		rxIdx := 0
		if len(c.rxs) > 1 {
			if c.SelectRx == nil {
				panic(fmt.Sprintf("sbus %s: multiple receivers but no SelectRx", c.Name))
			}
			rxIdx = c.SelectRx(f.Pkt)
			if rxIdx < 0 || rxIdx >= len(c.rxs) {
				panic(fmt.Sprintf("sbus %s: SelectRx gave %d of %d", c.Name, rxIdx, len(c.rxs)))
			}
		}
		if w := c.writers[wi]; c.waker != nil && cycle-w.waitFrom > w.maxWait {
			w.maxWait = cycle - w.waitFrom // the writer's token wait closes
		}
		c.lockedW, c.lockedVC, c.lockedRx = wi, vc, rxIdx
		c.busyUntil = cycle + uint64(d*c.TokenHopCy)
		c.token = wi
		c.tokenMoves += uint64(d)
		if c.Tap.Wants(noc.EvGrant) {
			c.Tap.Emit(noc.Event{Kind: noc.EvGrant, Cycle: cycle, Pkt: f.Pkt, A: wi, B: rxIdx, C: d * c.TokenHopCy})
		}
		return
	}
}

// nextPendingVC returns writer wi's next VC with queued flits, round
// robin, or -1. An idle writer costs its positions only.
func (c *Channel) nextPendingVC(wi int) int {
	if c.queued(wi) == 0 {
		return -1
	}
	w, fs := c.writers[wi], c.fifos[wi*c.nvc:]
	for i := 1; i <= c.nvc; i++ {
		vc := (int(w.rrVC) + i) % c.nvc
		if fs[vc] != 0 {
			w.rrVC = uint8(vc)
			return vc
		}
	}
	return -1
}

// queued returns the flits in writer wi's queues.
func (c *Channel) queued(wi int) (n int) {
	for _, q := range c.fifos[wi*c.nvc : (wi+1)*c.nvc] {
		n += int(q)
	}
	return n
}

// Queued returns the number of flits waiting in writer queues plus in
// flight, for drain checks.
func (c *Channel) Queued() int { return c.totalQueued + c.inflight.Len() }

// NumRx returns the number of receive ports; more than one marks a
// SWMR medium whose delivered packets still face an intra-group
// forward.
func (c *Channel) NumRx() int { return len(c.rxs) }

// Stats is a channel's telemetry snapshot.
type Stats struct {
	// Name identifies the channel.
	Name string
	// Transmitted counts flits sent.
	Transmitted uint64
	// BusyCy is the cycles the medium spent serializing.
	BusyCy uint64
	// TokenMoves counts token hop-steps paid during arbitration.
	TokenMoves uint64
	// CreditStallCy counts cycles a locked packet waited on receiver
	// credits.
	CreditStallCy uint64
}

// Utilization returns the busy fraction over the given horizon.
func (s Stats) Utilization(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(s.BusyCy) / float64(cycles)
}

// Stats returns the channel's telemetry snapshot, as per-cycle ticking
// would have it at this point.
func (c *Channel) Stats() Stats {
	return Stats{
		Name:          c.Name,
		Transmitted:   c.Transmitted,
		BusyCy:        c.busyCy,
		TokenMoves:    c.tokenMoves,
		CreditStallCy: c.creditStall + c.pendingStall(),
	}
}

// pendingStall is the credit-stall cycles a sleeping channel has not
// charged yet: the completed ones since the tick that found the stall
// (none for a reader inside that tick's own cycle, where Elapsed is
// stalledAt itself).
func (c *Channel) pendingStall() uint64 {
	if c.stalledAt == 0 || c.waker == nil {
		return 0
	}
	return max(c.waker.Elapsed(), c.stalledAt+1) - c.stalledAt - 1
}

// QueueHighWater returns the peak number of flits ever queued across
// the channel's writers at once.
func (c *Channel) QueueHighWater() int { return c.qHighWater }

// waiting reports whether writer wi waits for the token: it has flits
// queued and does not hold the lock. A wait opens when the writer's first
// flit arrives without the lock (Send) or when its tail frees the lock
// with more queued (transmitLocked), and closes at its grant (acquire).
// A channel without a waker keeps no wait.
func (c *Channel) waiting(wi int) bool {
	return c.waker != nil && c.lockedW != wi && c.queued(wi) > 0
}

// WriterIntro is one writer's slice of a ChannelIntro snapshot.
type WriterIntro struct {
	// Index is the writer's position on the channel's token ring.
	Index int `json:"idx"`
	// ID is the stamped upstream router ID, or -1.
	ID int `json:"id"`
	// Queued counts flits across the writer's VC queues.
	Queued int `json:"queued"`
	// Waiting, WaitingSinceCy and MaxWaitCy are the writer's token-wait
	// state: whether it waits for the grant now, since which cycle, and
	// its longest wait closed so far (all zero on a channel without a
	// waker, which has no clock to time them by).
	Waiting        bool   `json:"waiting,omitempty"`
	WaitingSinceCy uint64 `json:"waiting_since_cy,omitempty"`
	MaxWaitCy      uint64 `json:"max_wait_cy,omitempty"`
	// HeadPkt/HeadSrc/HeadDst describe the packet at the front of the
	// writer's lowest pending VC (HeadPkt 0 when nothing is queued).
	HeadPkt uint64 `json:"head_pkt,omitempty"`
	HeadSrc int    `json:"head_src,omitempty"`
	HeadDst int    `json:"head_dst,omitempty"`
}

// ChannelIntro is a full point-in-time snapshot of a channel's
// arbitration state for diagnostics dumps: token position, lock, queue
// occupancy, per-writer queues and receiver credit balances. It is
// read-only and deterministic; building it walks every writer, so it is
// a dump path, not a hot path.
type ChannelIntro struct {
	Name  string `json:"name"`
	Kind  string `json:"kind,omitempty"`
	Class string `json:"class,omitempty"`
	// Token is the writer index holding (or last holding) the grant
	// token; LockedWriter is -1 when the medium is free.
	Token        int    `json:"token"`
	LockedWriter int    `json:"locked_writer"`
	LockedVC     int    `json:"locked_vc"`
	LockedRx     int    `json:"locked_rx"`
	BusyUntilCy  uint64 `json:"busy_until_cy"`
	// Queued counts flits in writer queues; InFlight counts flits on
	// the medium; QueueHighWater is the all-time occupancy peak.
	Queued         int `json:"queued"`
	InFlight       int `json:"in_flight"`
	QueueHighWater int `json:"queue_high_water"`
	// Cumulative Stats fields, flattened.
	Transmitted   uint64 `json:"transmitted"`
	BusyCy        uint64 `json:"busy_cy"`
	TokenMoves    uint64 `json:"token_moves"`
	CreditStallCy uint64 `json:"credit_stall_cy"`

	Writers   []WriterIntro `json:"writers,omitempty"`
	RxCredits [][]int       `json:"rx_credits,omitempty"`
}

// headInfo reads the front packet of writer wi's lowest pending VC
// without touching the round-robin pointer (introspection must be
// side-effect free).
func (c *Channel) headInfo(wi int) (id uint64, src, dst int) {
	for vc := 0; vc < c.nvc; vc++ {
		if q := c.queue(wi, vc); !q.fifo.Empty() {
			p := q.fifo.Front().Pkt
			return p.ID, p.Src, p.Dst
		}
	}
	return 0, 0, 0
}

// Introspect snapshots the channel's full arbitration state.
func (c *Channel) Introspect() ChannelIntro {
	ci := ChannelIntro{
		Name:           c.Name,
		Kind:           c.Kind,
		Class:          c.Class,
		Token:          c.token,
		LockedWriter:   c.lockedW,
		LockedVC:       c.lockedVC,
		LockedRx:       c.lockedRx,
		BusyUntilCy:    c.busyUntil,
		Queued:         c.totalQueued,
		InFlight:       c.inflight.Len(),
		QueueHighWater: c.qHighWater,
		Transmitted:    c.Transmitted,
		BusyCy:         c.busyCy,
		TokenMoves:     c.tokenMoves,
		CreditStallCy:  c.creditStall + c.pendingStall(),
		Writers:        make([]WriterIntro, len(c.writers)),
		RxCredits:      make([][]int, len(c.rxs)),
	}
	for i, w := range c.writers {
		wi := WriterIntro{Index: i, ID: int(w.id), Queued: c.queued(i), MaxWaitCy: w.maxWait}
		if c.waiting(i) {
			wi.Waiting, wi.WaitingSinceCy = true, w.waitFrom
		}
		wi.HeadPkt, wi.HeadSrc, wi.HeadDst = c.headInfo(i)
		ci.Writers[i] = wi
	}
	for i, r := range c.rxs {
		ci.RxCredits[i] = append([]int(nil), r.credits...)
	}
	return ci
}

// CheckInvariants validates credit bounds and queue accounting.
func (c *Channel) CheckInvariants() error {
	for i, r := range c.rxs {
		for vc, cr := range r.credits {
			if cr < 0 || cr > r.maxCred {
				return fmt.Errorf("sbus %s: rx %d vc %d credits %d out of [0,%d]", c.Name, i, vc, cr, r.maxCred)
			}
		}
	}
	sum := 0
	for i, n := range c.fifos {
		if err := c.checkQueue(i/c.nvc, i%c.nvc); err != nil {
			return err
		}
		sum += int(n)
	}
	if sum != c.totalQueued {
		return fmt.Errorf("sbus %s: writer queued sum %d != totalQueued %d", c.Name, sum, c.totalQueued)
	}
	// A sleeping channel with work must be waiting for something that will
	// come: the end of a serialization or token window (a timed wakeup by
	// then), or the flit or credit its locked packet lacks. Anything else
	// is a lost wakeup.
	if c.waker == nil || c.lockedW < 0 && c.totalQueued == 0 {
		return nil
	}
	if asleep, wakeAt := c.waker.Asleep(); asleep && (wakeAt == 0 || wakeAt > c.busyUntil) {
		stuck := false
		if c.lockedW >= 0 {
			q := c.queue(c.lockedW, c.lockedVC)
			stuck = q.fifo.Empty() || c.rxs[c.lockedRx].credits[c.lockedVC] == 0
		}
		if !stuck {
			return fmt.Errorf("sbus %s: asleep (timed wakeup at %d, busy until %d) with a flit that could move: locked writer %d vc %d, %d queued",
				c.Name, wakeAt, c.busyUntil, c.lockedW, c.lockedVC, c.totalQueued)
		}
	}
	return nil
}

// checkQueue walks writer wi's VC vc: its circle of links must hold as
// many flits as its count says, at most depth, each on that VC.
func (c *Channel) checkQueue(wi, vc int) error {
	q := c.queue(wi, vc)
	n, stray := 0, -1
	q.fifo.Walk(func(f *noc.Flit) bool {
		if n++; f.VC != vc {
			stray = f.VC
		}
		return stray < 0 && n <= c.depth
	})
	if stray >= 0 {
		return fmt.Errorf("sbus %s: writer %d vc %d queue holds a flit of vc %d", c.Name, wi, vc, stray)
	}
	if n > c.depth || n != int(*q.n) {
		return fmt.Errorf("sbus %s: writer %d vc %d queue holds %d flits (depth %d), counted %d", c.Name, wi, vc, n, c.depth, *q.n)
	}
	return nil
}

// queue is one writer VC's FIFO and its flit count.
type queue struct {
	fifo *noc.FlitFIFO
	n    *uint8
}

// queue returns writer wi's VC vc.
func (c *Channel) queue(wi, vc int) queue {
	k := bits.Len(uint(wi+1)) - 1
	return queue{&c.rings[k][(wi+1-1<<k)*c.nvc+vc], &c.fifos[wi*c.nvc+vc]}
}

func (q queue) push(f *noc.Flit) {
	q.fifo.Push(f)
	*q.n++
}

func (q queue) pop() {
	q.fifo.Pop()
	*q.n--
}
