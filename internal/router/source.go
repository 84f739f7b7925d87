package router

import (
	"fmt"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

// Generator produces at most one new packet per cycle for one source; nil
// means no packet this cycle. The traffic package provides implementations
// of the paper's synthetic patterns.
type Generator interface {
	Generate(cycle uint64) *noc.Packet
}

// NextWaker is an optional Generator extension for generators that can
// tell when their next packet is due: NextPending returns the earliest
// cycle >= from at which Generate may produce a packet, and false when
// the generator is exhausted. Sources use it to sleep through generation
// gaps, so Generate is then not called on the cycles in between. A
// generator may implement it only if that is unobservable: a known
// schedule (trace replay), or randomness that is private to the generator
// and drawn in a fixed order that skipped cycles cannot move
// (traffic.Bernoulli draws its next arrival's cycle at each arrival).
// Called with every cycle before from already offered to Generate; never
// called under Engine.DisableSleep, where the source polls Generate every
// cycle.
type NextWaker interface {
	NextPending(from uint64) (uint64, bool)
}

// PoolUser is an optional Generator extension: a generator that allocates
// its packets from the source's freelist, so that steady-state traffic
// allocates nothing. Sources install their pool via SetGenerator.
type PoolUser interface {
	UsePool(*noc.Pool)
}

// VCPolicy returns the bit mask of injection VCs a packet may use. The
// topology installs one per source to enforce its deadlock-avoidance
// discipline from the very first hop.
type VCPolicy func(p *noc.Packet) uint32

// Source is the network interface of one core: it queues generated
// packets and injects their flits into a router input port through a
// conduit, subject to downstream credits. Injection bandwidth is one flit
// per cycle, matching the core-router port width.
type Source struct {
	// CoreID is the terminal identifier.
	CoreID int
	// Gen produces traffic; may be nil for a silent source.
	Gen Generator
	// Policy restricts injection VCs; nil allows all.
	Policy VCPolicy
	// MaxQueue bounds the source queue; packets generated while the
	// queue is full are dropped and counted in Dropped (this models
	// offered vs. accepted load beyond saturation). Zero means 1024.
	MaxQueue int
	// OnAccepted is invoked for every packet admitted to the source
	// queue, OnDropped for every packet dropped; the statistics collector
	// hooks in here.
	OnAccepted, OnDropped func(p *noc.Packet)
	// Tap emits EvEnqueue when a packet is admitted to the source queue
	// (after OnAccepted, which the statistics collector owns), EvInject
	// when its head flit leaves the queue for the network, and EvLaunch
	// for every flit sent into the network.
	Tap noc.Tap
	// NoPool, when set before SetGenerator, keeps pooling-aware
	// generators off this source's freelist so every packet is freshly
	// allocated. The conformance oracle's reference mode sets it; results
	// are identical either way (pool-safety tests pin this).
	NoPool bool

	out        noc.Conduit
	numVCs     int
	credits    []int
	maxCredits int

	pool      noc.Pool
	waker     *sim.Waker
	nextWaker NextWaker // cached NextWaker view of Gen, set by SetGenerator

	queue    pktQueue
	inflight []*noc.Flit // flits of the packet being injected
	nextFlit int
	curVC    int
	rrVC     int

	// Counters.
	Generated uint64
	Injected  uint64
	Dropped   uint64
}

// NewSource creates a source injecting into the given conduit (typically a
// Wire to a router core port). numVCs and creditsPerVC describe the
// downstream input buffer.
func NewSource(coreID int, out noc.Conduit, numVCs, creditsPerVC int) *Source {
	s := &Source{
		CoreID:     coreID,
		MaxQueue:   1024,
		out:        out,
		numVCs:     numVCs,
		credits:    make([]int, numVCs),
		maxCredits: creditsPerVC,
	}
	s.Reset()
	return s
}

// Reset rewinds the source to what NewSource left: no generator, nothing
// queued or in flight, every credit home, counters at zero and an empty
// packet pool (a freelist kept across runs saves 15 k of 1.1 M allocations
// in an evaluation). Wiring, taps and the waker stay.
func (s *Source) Reset() {
	s.Gen, s.nextWaker = nil, nil
	for i := range s.credits {
		s.credits[i] = s.maxCredits
	}
	s.pool = noc.Pool{Tap: s.pool.Tap}
	clear(s.queue.buf)
	s.queue = pktQueue{buf: s.queue.buf}
	s.inflight, s.nextFlit, s.curVC, s.rrVC = nil, 0, -1, 0
	s.Generated, s.Injected, s.Dropped = 0, 0, 0
}

// SetConduit installs the outgoing channel after construction; sources and
// their wires reference each other, so one of the two must be attached
// late.
func (s *Source) SetConduit(out noc.Conduit) { s.out = out }

// SetWaker installs the source's scheduling handle (from
// sim.Engine.RegisterWakeable). A source sleeps when it cannot send —
// nothing queued or in flight, or no credit to send on — AND its generator
// is provably idle: absent, or a NextWaker reporting its next cycle. Any
// other generator keeps the source permanently awake, polling Generate
// once per cycle. See reschedule.
func (s *Source) SetWaker(w *sim.Waker) { s.waker = w }

// SetGenerator installs gen, points pooling-aware generators at this
// source's packet freelist, and wakes the source. Prefer it over writing
// the Gen field directly: a source that went to sleep with no generator
// would otherwise never notice the new one.
func (s *Source) SetGenerator(g Generator) {
	s.Gen = g
	s.nextWaker = nil
	if nw, ok := g.(NextWaker); ok {
		s.nextWaker = nw
	}
	if pu, ok := g.(PoolUser); ok && !s.NoPool {
		pu.UsePool(&s.pool)
	}
	if s.waker != nil {
		s.waker.Wake()
	}
}

// Pool exposes the source's packet freelist for tests and diagnostics.
func (s *Source) Pool() *noc.Pool { return &s.pool }

// ReceiveCredit implements noc.CreditReceiver (port is ignored; a source
// has a single output). A busy source may be asleep for want of this
// credit, so it is woken.
func (s *Source) ReceiveCredit(_, vc int) {
	s.credits[vc]++
	if s.waker != nil && s.Busy() {
		s.waker.Wake()
	}
}

// QueueLen returns the number of packets waiting in the source queue.
func (s *Source) QueueLen() int { return s.queue.size }

// Busy reports whether the source still has queued or in-flight flits.
func (s *Source) Busy() bool { return s.queue.size > 0 || s.inflight != nil }

// Tick implements sim.Ticker; it runs in the Compute phase.
func (s *Source) Tick(cycle uint64) {
	if s.Gen != nil {
		if p := s.Gen.Generate(cycle); p != nil {
			p.CreatedAt = cycle
			s.Generated++
			if s.queue.size >= s.maxQueue() {
				s.Dropped++
				if s.OnDropped != nil {
					s.OnDropped(p)
				}
				// Dropped packets never enter the network; their
				// storage is free for the next generation.
				noc.Recycle(p)
			} else {
				s.queue.push(p)
				if s.OnAccepted != nil {
					s.OnAccepted(p)
				}
				if s.Tap.Wants(noc.EvEnqueue) {
					s.Tap.Emit(noc.Event{Kind: noc.EvEnqueue, Cycle: cycle, Pkt: p})
				}
			}
		}
	}
	// Start a new packet if idle.
	if s.inflight == nil && s.queue.size > 0 {
		p := s.queue.front()
		vc := s.pickVC(p)
		if vc >= 0 {
			s.queue.pop()
			s.inflight = noc.FlitsOf(p)
			s.nextFlit = 0
			s.curVC, s.rrVC = vc, vc
			p.InjectedAt = cycle
			s.Injected++
			if s.Tap.Wants(noc.EvInject) {
				s.Tap.Emit(noc.Event{Kind: noc.EvInject, Cycle: cycle, Pkt: p})
			}
		}
	}
	// Send one flit per cycle when credits allow.
	if s.inflight != nil && s.credits[s.curVC] > 0 {
		f := s.inflight[s.nextFlit]
		f.VC = s.curVC
		s.credits[s.curVC]--
		if s.Tap.Wants(noc.EvLaunch) {
			s.Tap.Emit(noc.Event{Kind: noc.EvLaunch, Cycle: cycle, Pkt: f.Pkt, Flit: f})
		}
		s.out.Send(f)
		s.nextFlit++
		if s.nextFlit == len(s.inflight) {
			s.inflight = nil
			s.curVC = -1
		}
	}
	if s.waker != nil {
		s.reschedule(cycle)
	}
}

// reschedule sleeps the source when its next tick provably does nothing:
// it is idle (nothing queued or in flight) or blocked (no credit to send
// on, ReceiveCredit wakes it), and the generator is either absent or (via
// NextWaker) known not to produce before a future cycle, for which a timed
// wakeup is armed. An engine that cannot sleep is the reference schedule:
// the generator is polled every cycle and NextPending is never consulted.
func (s *Source) reschedule(cycle uint64) {
	if s.waker.SleepDisabled() || s.Busy() && !s.blocked() {
		return
	}
	if s.Gen != nil {
		if s.nextWaker == nil {
			return // no look-ahead: poll the generator every cycle
		}
		if next, pending := s.nextWaker.NextPending(cycle + 1); pending {
			s.waker.Sleep()
			s.waker.WakeAt(next)
			return
		}
	}
	s.waker.Sleep()
}

// blocked reports whether a busy source cannot send a flit until a credit
// arrives: the packet in flight has none on its VC, or no VC the queue's
// front may use has one.
func (s *Source) blocked() bool {
	if s.inflight != nil {
		return s.credits[s.curVC] == 0
	}
	return s.queue.size > 0 && s.pickVC(s.queue.front()) < 0
}

// CheckInvariants reports a lost wakeup: a sleeping source with a flit it
// could send.
func (s *Source) CheckInvariants() error {
	if s.waker == nil || !s.Busy() || s.blocked() {
		return nil
	}
	if asleep, wakeAt := s.waker.Asleep(); asleep {
		return fmt.Errorf("source %d asleep (timed wakeup at %d) with a flit it could send: %d queued, in flight on vc %d",
			s.CoreID, wakeAt, s.queue.size, s.curVC)
	}
	return nil
}

func (s *Source) maxQueue() int {
	if s.MaxQueue <= 0 {
		return 1024
	}
	return s.MaxQueue
}

// pickVC chooses a permitted injection VC with at least one credit, round
// robin after the last one used (rrVC); -1 if none is available this
// cycle. It changes nothing.
func (s *Source) pickVC(p *noc.Packet) int {
	mask := uint32(1<<uint(s.numVCs)) - 1
	if s.Policy != nil {
		mask = s.Policy(p)
		if mask == 0 {
			panic(fmt.Sprintf("router: source %d: empty VC policy mask for packet to %d", s.CoreID, p.Dst))
		}
	}
	for i := 1; i <= s.numVCs; i++ {
		vc := (s.rrVC + i) % s.numVCs
		if mask&(1<<uint(vc)) != 0 && s.credits[vc] > 0 {
			return vc
		}
	}
	return -1
}

// pktQueue is a ring-buffer FIFO of packets.
type pktQueue struct {
	buf        []*noc.Packet
	head, size int
}

func (q *pktQueue) push(p *noc.Packet) {
	if q.size == len(q.buf) {
		n := len(q.buf) * 2
		if n == 0 {
			n = 16
		}
		nb := make([]*noc.Packet, n)
		for i := 0; i < q.size; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = nb
		q.head = 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = p
	q.size++
}

func (q *pktQueue) front() *noc.Packet { return q.buf[q.head] }

func (q *pktQueue) pop() *noc.Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return p
}
