// Package router implements the cycle-accurate input-queued virtual-channel
// router used by every topology in this repository, together with the
// traffic Source (network interface) and ejection Sink.
//
// The router follows the canonical 5-stage pipeline the paper assumes for
// all architectures: route computation (RC), virtual-channel allocation
// (VCA), switch allocation (SA), switch traversal (ST) and link traversal
// (LT). RC, VCA and SA each take one cycle inside the router (enforced by
// processing the stages in reverse order within a tick); ST and LT are
// charged by the outgoing channel's delay. Flow control is credit-based
// wormhole with per-VC buffers; allocation is a two-stage separable
// round-robin allocator (input-port stage then output-port stage).
package router

import (
	"fmt"
	"math/bits"
	"slices"

	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/sim"
)

// RouteFunc computes the output port and the set of permitted output VCs
// (as a bit mask) for a packet arriving at inPort. Topologies install a
// RouteFunc per router; routing in this repository is deterministic, as in
// the paper (XY DOR for meshes, hierarchical photonic/wireless routing for
// OWN).
type RouteFunc func(p *noc.Packet, inPort int) (outPort int, vcMask uint32)

// Stage of an input VC's packet-level state machine.
type vcStage uint8

const (
	stIdle    vcStage = iota // waiting for a head flit
	stWaitVCA                // route computed, waiting for an output VC
	stActive                 // output VC held; flits compete in SA
)

// vcState is one virtual channel of one input port.
type vcState struct {
	port int // input port number
	in   int // index of the input port in Router.in
	vc   int

	buf  []*noc.Flit // FIFO; len <= BufDepth enforced by credits
	head int         // ring-buffer head
	size int

	stage    vcStage
	inActive bool
	saPos    int32 // 1 + position in Router.sa, 0 when not listed
	outPort  int
	outVC    int
	vcMask   uint32
}

func (v *vcState) front() *noc.Flit { return v.buf[v.head] }

func (v *vcState) push(f *noc.Flit) {
	v.buf[(v.head+v.size)%len(v.buf)] = f
	v.size++
}

func (v *vcState) pop() *noc.Flit {
	f := v.buf[v.head]
	v.buf[v.head] = nil
	v.head = (v.head + 1) % len(v.buf)
	v.size--
	return f
}

// inputPort groups the VC buffers fed by one upstream channel with the
// port's switch-allocation state.
type inputPort struct {
	port     int
	vcs      []vcState
	upstream noc.CreditReturner
	saLast   int      // last granted VC
	best     *vcState // stage-1 winner while a tick allocates, else nil
}

// outputPort is one outgoing channel's state; its per-VC credits live in
// Router.credits.
type outputPort struct {
	down        noc.Conduit // nil: not connected
	busyUntil   uint64
	best        *vcState // stage-2 winner while a tick allocates, else nil
	maxCredits  int32
	serializeCy int32  // cycles the switch/channel is held per flit
	owned       uint32 // output VCs held by an input VC, one bit each
	saLast      int32  // last granted input port
}

// Config parameterizes a Router.
type Config struct {
	// ID is the router's index within its network.
	ID int
	// NumPorts is the port count (the radix used for energy accounting).
	NumPorts int
	// NumVCs is the number of virtual channels per input port (the paper
	// uses 4 everywhere; at most 32).
	NumVCs int
	// BufDepth is the per-VC buffer depth in flits.
	BufDepth int
	// Route is the routing function.
	Route RouteFunc
	// Meter takes the static inventory at build time and counts buffer
	// writes (power.Meter.BufWrite says why that one stays a call); nil
	// disables accounting.
	Meter *power.Meter
}

// Counts is a router's cumulative pipeline telemetry. The two stall
// counts are per candidate per cycle and stay zero until CountStalls.
type Counts struct {
	// SAGrants counts switch-allocation grants (flits forwarded: one
	// buffer read and one crossbar traversal each).
	SAGrants uint64
	// VCAllocs counts VC-allocation grants (one per packet per hop).
	VCAllocs uint64
	// CreditStall counts SA candidates skipped for lack of downstream
	// credits.
	CreditStall uint64
	// BusyStall counts SA candidates skipped because the output
	// channel was still serializing a previous flit.
	BusyStall uint64
}

// Router is a cycle-accurate input-queued VC router.
type Router struct {
	Cfg Config

	// Tap emits the pipeline events: EvRoute and EvVCAlloc once per
	// packet per hop, EvSwitch for every forwarded flit (observers filter
	// on Flit.IsHead() and their packet-sampling stride), after the flit
	// was rewritten to its output VC.
	Tap noc.Tap

	// in holds the connected input ports in connection order, so a
	// router pays nothing for an input it does not use, and inAt maps a
	// port number to 1 + its index in in (0: not connected); out holds
	// every output port, and credits their per-VC credits (port p's VC vc
	// at p*NumVCs+vc).
	in      []inputPort
	inAt    []int32
	out     []outputPort
	credits []int32

	// active lists the input VCs holding flits, in activation order (the
	// order VCA visits them); sa, unordered, lists the switch candidates
	// among them: the stActive ones. Both are carved from one array with
	// room for every input VC, which keeps the hot path append-free.
	active []*vcState
	sa     []*vcState
	vcaPtr int // rotating start into the active list for VCA

	// outReq lists the output ports that have a stage-2 winner and inReq
	// the input ports that have a stage-1 winner while a tick allocates
	// (at most one per input port each; one array too).
	outReq []int
	inReq  []int

	// A stage runs only when its input moved since it last ran (see
	// Tick): vcaDue after a head is routed that finds a free output VC it
	// may use, or an output VC comes free; rcDue after a flit lands in an
	// idle VC or a tail grant leaves flits behind; compactDue after a
	// grant empties a VC.
	vcaDue, rcDue, compactDue bool

	// buffered mirrors the total flits across all input VC buffers
	// (incremented on ReceiveFlit, decremented at the switch-allocation
	// pop); bufHighWater is its all-time peak. Both are always on — two
	// integer ops per flit — so occupancy diagnostics never walk the
	// buffers; CheckInvariants cross-checks the mirror against a recount.
	buffered     int
	bufHighWater int

	// stalled marks a router asleep with its active list intact because
	// nothing in it can move (see Tick); busyWake is the earliest busyUntil
	// among the switch candidates that hold a credit (0 = none), the cycle
	// such a sleep ends by itself.
	stalled  bool
	busyWake uint64

	// counts is kept per tick while the router is awake and by interval
	// while it is stalled (catchUp); countStalls switches the two stall
	// counts on.
	counts      Counts
	countStalls bool

	// now is the last cycle accounted for: the last tick, or the last
	// slept cycle catchUp settled.
	now   uint64
	waker *sim.Waker
}

// New creates a router with no ports connected. Topologies connect inputs
// and outputs before simulation starts.
func New(cfg Config) *Router {
	if cfg.NumPorts <= 0 || cfg.NumVCs <= 0 || cfg.NumVCs > 32 || cfg.BufDepth <= 0 {
		panic(fmt.Sprintf("router %d: invalid config %+v", cfg.ID, cfg))
	}
	nc := cfg.NumPorts * cfg.NumVCs
	ints := make([]int32, nc+cfg.NumPorts) // credits, then inAt
	r := &Router{
		Cfg:     cfg,
		out:     make([]outputPort, cfg.NumPorts),
		credits: ints[:nc:nc],
		inAt:    ints[nc:],
	}
	cfg.Meter.RegisterRouter(cfg.NumPorts, cfg.NumVCs)
	return r
}

// input returns connected input port `port`, or nil.
func (r *Router) input(port int) *inputPort {
	if uint(port) < uint(len(r.inAt)) && r.inAt[port] > 0 {
		return &r.in[r.inAt[port]-1]
	}
	return nil
}

// ConnectInput attaches an upstream channel to input port p. The upstream
// CreditReturner receives a credit every time a buffered flit leaves.
func (r *Router) ConnectInput(p int, upstream noc.CreditReturner) {
	if p < 0 || p >= r.Cfg.NumPorts || r.input(p) != nil {
		panic(fmt.Sprintf("router %d: input port %d connected twice or out of range", r.Cfg.ID, p))
	}
	r.Cfg.Meter.RegisterInputPort(r.Cfg.NumVCs)
	// One allocation each for the port's VC states and their flit rings,
	// carved per VC (capacity-limited so no ring can grow into the next).
	nv, d := r.Cfg.NumVCs, r.Cfg.BufDepth
	states, bufs := make([]vcState, nv), make([]*noc.Flit, nv*d)
	for v := range states {
		states[v] = vcState{port: p, in: len(r.in), vc: v, buf: bufs[v*d : (v+1)*d : (v+1)*d], outPort: -1, outVC: -1}
	}
	r.in = append(r.in, inputPort{port: p, vcs: states, upstream: upstream})
	r.inAt[p] = int32(len(r.in))
	r.active, r.sa = grow2(r.active, r.sa, len(r.in)*nv)
	r.outReq, r.inReq = grow2(r.outReq, r.inReq, len(r.in))
}

// grow2 returns a and b with capacity for n entries each, carved from one
// backing array. One too small is replaced by one with room for 1.5n each,
// so building a router allocates O(log inputs) times and keeps at most
// half again what its inputs need.
func grow2[T any](a, b []T, n int) ([]T, []T) {
	if cap(a) >= n {
		return a, b
	}
	c := n + n/2
	buf := make([]T, 2*c)
	return append(buf[:0:c], a...), append(buf[c:c:2*c], b...)
}

// outCredits returns output port p's per-VC credits.
func (r *Router) outCredits(p int) []int32 {
	return r.credits[p*r.Cfg.NumVCs : (p+1)*r.Cfg.NumVCs]
}

// ConnectOutput attaches a downstream conduit to output port p with the
// given per-VC credit count (the downstream buffer depth) and per-flit
// serialization time in cycles (>= 1; >1 models narrow channels used for
// bisection-bandwidth equalization).
func (r *Router) ConnectOutput(p int, down noc.Conduit, creditsPerVC, serializeCy int) {
	op := &r.out[p]
	if op.down != nil {
		panic(fmt.Sprintf("router %d: output port %d connected twice", r.Cfg.ID, p))
	}
	*op = outputPort{down: down, maxCredits: int32(creditsPerVC), serializeCy: int32(max(serializeCy, 1))}
	for vc := range r.outCredits(p) {
		r.outCredits(p)[vc] = op.maxCredits
	}
}

// Reset rewinds the router to what New and the Connect calls left: empty
// buffers, every credit home, no output VC held, arbiters and counts at
// zero. The wiring stays, the port → input table included, and so does
// what was installed since: waker, taps, CountStalls.
func (r *Router) Reset() {
	for i := range r.in {
		ip := &r.in[i]
		for vc := range ip.vcs {
			v := &ip.vcs[vc]
			clear(v.buf)
			*v = vcState{port: v.port, in: v.in, vc: v.vc, buf: v.buf, outPort: -1, outVC: -1}
		}
		ip.saLast = 0
	}
	for p := range r.out {
		op := &r.out[p]
		if op.down == nil {
			continue
		}
		for vc := range r.outCredits(p) {
			r.outCredits(p)[vc] = op.maxCredits
		}
		op.busyUntil, op.owned, op.saLast = 0, 0, 0
	}
	clear(r.active)
	r.active, r.sa = r.active[:0], r.sa[:0]
	r.vcaDue, r.rcDue, r.compactDue = false, false, false
	r.vcaPtr, r.buffered, r.bufHighWater = 0, 0, 0
	r.stalled, r.busyWake, r.counts, r.now = false, 0, Counts{}, 0
}

// ReceiveFlit implements noc.FlitReceiver: a channel delivers a flit into
// input buffer (port, f.VC).
func (r *Router) ReceiveFlit(port int, f *noc.Flit) {
	ip := r.input(port)
	if ip == nil {
		panic(fmt.Sprintf("router %d: flit on unconnected input port %d", r.Cfg.ID, port))
	}
	v := &ip.vcs[f.VC]
	if v.size >= r.Cfg.BufDepth {
		panic(fmt.Sprintf("router %d: buffer overflow port %d vc %d (credit protocol violation)", r.Cfg.ID, port, f.VC))
	}
	v.push(f)
	r.buffered++
	if r.buffered > r.bufHighWater {
		r.bufHighWater = r.buffered
	}
	r.Cfg.Meter.BufWrite()
	r.activate(v)
}

// ReceiveCredit implements noc.CreditReceiver: the downstream buffer of
// output port `port` freed a slot in VC `vc`. It wakes a stalled router
// if this is the credit a blocked VC was waiting for. Like ReceiveFlit it
// is a delivery-phase call: it lands before the router's tick of the
// cycle.
func (r *Router) ReceiveCredit(port, vc int) {
	op := &r.out[port]
	if op.down == nil {
		panic(fmt.Sprintf("router %d: credit on unconnected output port %d", r.Cfg.ID, port))
	}
	// Only the first credit of an output VC that some input VC holds can
	// unblock anything: an idle router has nothing to grant, and a second
	// credit follows one that already woke the router. That credit ends
	// the holder's credit stall, so the cycles slept so far are charged
	// before it is booked.
	c := &r.outCredits(port)[vc]
	if r.stalled && *c == 0 && op.owned&(1<<uint(vc)) != 0 {
		r.catchUp(r.waker.Now())
		r.waker.Wake()
	}
	*c++
	if *c > op.maxCredits {
		panic(fmt.Sprintf("router %d: credit overflow port %d vc %d", r.Cfg.ID, port, vc))
	}
}

// SetWaker installs the router's scheduling handle (from
// sim.Engine.RegisterWakeable). The router sleeps when its active list
// is empty, woken by flit arrivals, and when nothing in the list can move
// on the next cycle (stalled), woken by a flit landing in a VC outside
// the active list, by the credit a blocked VC waits for, or at the
// busyUntil of a blocked output; see Tick. Observed or not: the counts a
// probe reads are settled by interval (catchUp), so no reader keeps the
// router awake.
func (r *Router) SetWaker(w *sim.Waker) { r.waker = w }

// CountStalls switches on the two stall counts of Counts; call it before
// the first tick. fabric.Network.InstallProbe does, nothing else needs to.
func (r *Router) CountStalls() { r.countStalls = true }

// Counts returns the router's cumulative counts as per-cycle ticking
// would have them at this point: a stalled router's slept cycles are
// settled first, which touches its lazily kept accounting and nothing a
// simulated outcome depends on.
func (r *Router) Counts() Counts {
	if r.stalled {
		r.catchUp(r.waker.Elapsed())
	}
	return r.counts
}

func (r *Router) activate(v *vcState) {
	if !v.inActive {
		// v may hold an output VC (a wormhole gap emptied it): once listed
		// it is a switch candidate, which it was not while the router slept.
		if r.stalled {
			r.catchUp(r.waker.Now())
		}
		v.inActive = true
		r.active = append(r.active, v)
		if v.stage == stActive {
			r.saAdd(v)
		}
		r.rcDue = r.rcDue || v.stage == stIdle
		if r.waker != nil {
			r.waker.Wake()
		}
	}
}

// catchUp accounts for the cycles [now+1, upTo) a stalled router was not
// ticked on, as if it had been. A no-op tick advances vcaPtr, and it
// counts every switch candidate once: busy-stalled while its output
// serializes, credit-stalled after that if it holds no credit (one that
// does stays busy-stalled throughout, because the timed wakeup at
// busyWake ends the interval first). Nothing a candidate's stall depends
// on changes while the router sleeps except through ReceiveFlit and
// ReceiveCredit, and both settle before they change it, so the charge is
// exact.
func (r *Router) catchUp(upTo uint64) {
	from := r.now + 1
	if upTo <= from {
		return
	}
	r.now = upTo - 1
	r.vcaPtr += int(upTo - from)
	if !r.countStalls {
		return
	}
	for _, v := range r.sa {
		busyEnd := min(max(r.out[v.outPort].busyUntil, from), upTo)
		r.counts.BusyStall += busyEnd - from
		if r.credit(v) == 0 {
			r.counts.CreditStall += upTo - busyEnd
		}
	}
}

// Tick implements sim.Ticker. Stages run in reverse pipeline order so that
// each stage costs one cycle.
//
// A tick after which nothing in the active list can move on the next cycle
// stalls the router: every listed VC is blocked, and no later tick can
// differ until a flit lands in a VC outside the list, a blocked VC's
// credit arrives, or a blocked output's busyUntil passes (output VCs free
// only on this router's own tail grants, routes are computed in the tick
// that finds the head, a flit queued behind a blocked front changes
// nothing). So the router sleeps until one of the three — whether this
// tick moved something or not, so a grant is not followed by a tick that
// only finds out — and on waking catchUp makes up for the ticks it
// skipped: vcaPtr, the one thing a no-op tick does change, and the stall
// counts such ticks would have taken. That keeps schedule and counts
// bit-exact against per-cycle ticking.
//
// VCA, RC and compaction run only when their input moved (the Due flags):
// a pass they skip would find nothing to do. After a VCA pass no waiting
// VC has a free output VC it may use, and only a newly routed head that
// finds one or a freed output VC changes that; every head is routed in
// the tick that finds it, after which no idle VC holds a flit; compaction
// leaves every listed VC holding one. A skipped VCA pass still advances
// vcaPtr.
func (r *Router) Tick(cycle uint64) {
	if r.stalled {
		r.catchUp(cycle)
		r.stalled = false
	}
	r.now = cycle
	freeHead := false // a head routed this tick finds a free output VC
	if len(r.active) > 0 {
		r.switchAllocate()
		if r.vcaDue {
			r.vcAllocate()
		}
		r.vcaPtr++
		if r.rcDue {
			freeHead = r.routeCompute()
		}
		if r.compactDue {
			r.compactActive()
		}
	}
	if r.waker == nil {
		return
	}
	if len(r.active) == 0 {
		r.waker.Sleep()
	} else if !r.waker.SleepDisabled() && !freeHead && !r.canMoveNext() {
		r.stalled = true
		r.waker.Sleep()
		if r.busyWake != 0 {
			r.waker.WakeAt(r.busyWake)
		}
	}
}

// canMoveNext reports whether the tick of cycle now+1 can change pipeline
// state, given what this one left and that no head it routed finds a free
// output VC: every head is routed, no other waiting VC can be allocated
// one (see Tick), so what remains is a switch candidate granted an output
// that is free by then and has a credit. When none can it leaves busyWake
// for the sleep that follows.
func (r *Router) canMoveNext() bool {
	r.busyWake = 0
	for _, v := range r.sa {
		if r.credit(v) > 0 {
			op := &r.out[v.outPort]
			if op.busyUntil <= r.now+1 {
				return true
			}
			if r.busyWake == 0 || op.busyUntil < r.busyWake {
				r.busyWake = op.busyUntil
			}
		}
	}
	return false
}

// credit returns the credits of the output VC v holds.
func (r *Router) credit(v *vcState) int32 { return r.credits[v.outPort*r.Cfg.NumVCs+v.outVC] }

// freeVCs returns the output VCs v may use that nobody holds.
func (r *Router) freeVCs(v *vcState) uint32 {
	return v.vcMask &^ r.out[v.outPort].owned & (uint32(1)<<uint(r.Cfg.NumVCs) - 1)
}

// saAdd lists v as a switch candidate; saDrop unlists it.
func (r *Router) saAdd(v *vcState) {
	r.sa = append(r.sa, v)
	v.saPos = int32(len(r.sa))
}

func (r *Router) saDrop(v *vcState) {
	last := r.sa[len(r.sa)-1]
	r.sa[v.saPos-1], last.saPos, v.saPos = last, v.saPos, 0
	r.sa = r.sa[:len(r.sa)-1]
}

// switchAllocate runs the two-stage separable allocator and performs
// switch traversal for the winners. Its work is per candidate: stage 1
// walks the switch candidates, stage 2 the input ports with a winner, the
// grant the output ports with one, and each clears the scratch as it
// consumes it. No order among candidates matters: rrBefore is a total
// order on distinct VCs of a port and on distinct ports, and the grants
// go out sorted.
func (r *Router) switchAllocate() {
	// Stage 1: per input port, round-robin over its VCs.
	for _, v := range r.sa {
		if r.out[v.outPort].busyUntil > r.now {
			if r.countStalls {
				r.counts.BusyStall++
			}
			continue
		}
		if r.credit(v) <= 0 {
			if r.countStalls {
				r.counts.CreditStall++
			}
			continue
		}
		ip := &r.in[v.in]
		if ip.best == nil {
			r.inReq = append(r.inReq, v.in)
		}
		if ip.best == nil || rrBefore(ip.saLast, v.vc, ip.best.vc, r.Cfg.NumVCs) {
			ip.best = v
		}
	}
	// Stage 2: per output port, round-robin over the input ports' winners.
	for _, i := range r.inReq {
		ip := &r.in[i]
		v := ip.best
		ip.best = nil
		op := &r.out[v.outPort]
		if op.best == nil {
			r.outReq = append(r.outReq, v.outPort)
		}
		if op.best == nil || rrBefore(int(op.saLast), v.port, op.best.port, r.Cfg.NumPorts) {
			op.best = v
		}
	}
	// Grant: traverse the switch, by ascending output port — the order
	// EvSwitch, Send and ReturnCredit go out in.
	slices.Sort(r.outReq)
	for _, p := range r.outReq {
		op := &r.out[p]
		v := op.best
		op.best = nil
		f := v.pop()
		r.buffered--
		f.VC = v.outVC
		if f.IsHead() {
			f.Pkt.Hops++
		}
		r.counts.SAGrants++
		if r.Tap.Wants(noc.EvSwitch) {
			r.Tap.Emit(noc.Event{Kind: noc.EvSwitch, Cycle: r.now, Pkt: f.Pkt, Flit: f, A: v.port, B: p, C: v.outVC})
		}
		r.credits[p*r.Cfg.NumVCs+v.outVC]--
		op.busyUntil = r.now + uint64(op.serializeCy)
		op.down.Send(f)
		ip := &r.in[v.in]
		ip.upstream.ReturnCredit(v.vc)
		ip.saLast = v.vc
		op.saLast = int32(v.port)
		if f.IsTail() {
			op.owned &^= 1 << uint(v.outVC)
			v.stage = stIdle
			v.outPort, v.outVC = -1, -1
			// The output VC is free, and a head may wait behind the tail.
			r.vcaDue, r.rcDue = true, r.rcDue || v.size > 0
		}
		if v.size == 0 || v.stage == stIdle {
			r.saDrop(v)
		}
		r.compactDue = r.compactDue || v.size == 0
	}
	r.inReq, r.outReq = r.inReq[:0], r.outReq[:0]
}

// vcAllocate grants free output VCs to input VCs in WaitVCA, starting from
// a rotating offset into the active list for fairness (Tick advances it);
// a VC gets the lowest-numbered free output VC it may use.
func (r *Router) vcAllocate() {
	r.vcaDue = false
	na := len(r.active)
	if na == 0 {
		return
	}
	start := r.vcaPtr % na
	for i := 0; i < na; i++ {
		v := r.active[(start+i)%na]
		if v.stage != stWaitVCA {
			continue
		}
		free := r.freeVCs(v)
		if free == 0 {
			continue
		}
		ovc := bits.TrailingZeros32(free)
		r.out[v.outPort].owned |= 1 << uint(ovc)
		v.outVC = ovc
		v.stage = stActive
		r.saAdd(v)
		r.counts.VCAllocs++
		if r.Tap.Wants(noc.EvVCAlloc) {
			r.Tap.Emit(noc.Event{Kind: noc.EvVCAlloc, Cycle: r.now, Pkt: v.front().Pkt, A: v.outPort, B: ovc})
		}
	}
}

// routeCompute runs RC for idle VCs whose buffer front is a head flit and
// reports whether one of them finds a free output VC it may use.
func (r *Router) routeCompute() (free bool) {
	r.rcDue = false
	for _, v := range r.active {
		if v.stage != stIdle || v.size == 0 {
			continue
		}
		f := v.front()
		if !f.IsHead() {
			panic(fmt.Sprintf("router %d: non-head flit (pkt %d seq %d) at front of idle VC %d/%d",
				r.Cfg.ID, f.Pkt.ID, f.Seq, v.port, v.vc))
		}
		outPort, mask := r.Cfg.Route(f.Pkt, v.port)
		if outPort < 0 || outPort >= r.Cfg.NumPorts || r.out[outPort].down == nil {
			panic(fmt.Sprintf("router %d: route for pkt %d (src %d dst %d, in %d) gave invalid out port %d",
				r.Cfg.ID, f.Pkt.ID, f.Pkt.Src, f.Pkt.Dst, v.port, outPort))
		}
		if mask == 0 {
			panic(fmt.Sprintf("router %d: empty VC mask for pkt %d", r.Cfg.ID, f.Pkt.ID))
		}
		v.outPort = outPort
		v.vcMask = mask
		v.stage = stWaitVCA
		free = free || r.freeVCs(v) != 0
		if r.Tap.Wants(noc.EvRoute) {
			r.Tap.Emit(noc.Event{Kind: noc.EvRoute, Cycle: r.now, Pkt: f.Pkt, A: v.port, B: outPort, C: int(mask)})
		}
	}
	r.vcaDue = r.vcaDue || free
	return free
}

// compactActive drops VCs with no buffered flits from the active list;
// they are re-activated when a flit arrives.
func (r *Router) compactActive() {
	r.compactDue = false
	w := 0
	for _, v := range r.active {
		if v.size > 0 {
			r.active[w] = v
			w++
		} else {
			v.inActive = false
		}
	}
	for i := w; i < len(r.active); i++ {
		r.active[i] = nil
	}
	r.active = r.active[:w]
}

// rrBefore reports whether candidate a beats candidate b under a
// round-robin priority whose last grant was `last` (lower distance from
// last+1 wins), over a ring of size n.
func rrBefore(last, a, b, n int) bool {
	da := (a - last - 1 + 2*n) % n
	db := (b - last - 1 + 2*n) % n
	return da < db
}

// CheckInvariants validates internal consistency; tests call it after
// simulation and the checker's periodic sweep during it. It returns an
// error describing the first violation found. A sleeping router must be
// stuck for a reason, so a buffered flit that could move while the router
// is asleep — a lost wakeup — is a violation too, and so is one a skipped
// stage would not see: the sa list and the stage flags are checked against
// the VCs they stand for.
func (r *Router) CheckInvariants() error {
	asleep, wakeAt := false, uint64(0)
	if r.waker != nil {
		asleep, wakeAt = r.waker.Asleep()
	}
	owned := 0
	for p := range r.out {
		op := &r.out[p]
		if op.down == nil {
			continue
		}
		for vc, c := range r.outCredits(p) {
			if c < 0 || c > op.maxCredits {
				return fmt.Errorf("router %d out %d vc %d: credits %d out of [0,%d]", r.Cfg.ID, p, vc, c, op.maxCredits)
			}
		}
		owned += bits.OnesCount32(op.owned)
	}
	for i, v := range r.sa {
		if int(v.saPos) != i+1 || v.stage != stActive || v.size == 0 {
			return fmt.Errorf("router %d in %d vc %d: listed switch candidate %d at position %d, stage %d, %d flits",
				r.Cfg.ID, v.port, v.vc, i, v.saPos-1, v.stage, v.size)
		}
	}
	// Every held output VC has one holder: an input VC in stActive on it.
	holding, candidates, recount := 0, 0, 0
	for _, ip := range r.in {
		for vc := range ip.vcs {
			v := &ip.vcs[vc]
			if v.size < 0 || v.size > r.Cfg.BufDepth {
				return fmt.Errorf("router %d in %d vc %d: size %d", r.Cfg.ID, ip.port, vc, v.size)
			}
			recount += v.size
			if v.stage == stActive {
				holding++
				if r.out[v.outPort].owned&(1<<uint(v.outVC)) == 0 {
					return fmt.Errorf("router %d in %d vc %d: inconsistent owner: holds out %d vc %d, which is free", r.Cfg.ID, ip.port, vc, v.outPort, v.outVC)
				}
				if v.size > 0 {
					candidates++
				}
			}
			if v.size > 0 && (v.stage == stIdle && !r.rcDue || v.stage == stWaitVCA && !r.vcaDue && r.freeVCs(v) != 0) {
				return fmt.Errorf("router %d in %d vc %d: stage %d could move, but its stage is not due", r.Cfg.ID, ip.port, vc, v.stage)
			}
			if !asleep || v.size == 0 {
				continue
			}
			stuck := false // an unrouted head never waits
			switch v.stage {
			case stWaitVCA: // for an output VC: none it may use is free
				stuck = r.freeVCs(v) == 0
			case stActive: // for a credit, or until busyUntil with a wakeup by then
				stuck = r.credit(v) == 0 || wakeAt != 0 && wakeAt <= r.out[v.outPort].busyUntil
			}
			if !stuck {
				return fmt.Errorf("router %d asleep (timed wakeup at %d) but in %d vc %d could move: stage %d, out %d vc %d",
					r.Cfg.ID, wakeAt, ip.port, vc, v.stage, v.outPort, v.outVC)
			}
		}
	}
	if owned != holding {
		return fmt.Errorf("router %d: inconsistent owner: %d output VCs held, %d input VCs holding one", r.Cfg.ID, owned, holding)
	}
	if candidates != len(r.sa) {
		return fmt.Errorf("router %d: %d switch candidates, %d listed", r.Cfg.ID, candidates, len(r.sa))
	}
	if r.buffered != recount {
		return fmt.Errorf("router %d: buffered mirror %d != %d recounted flits", r.Cfg.ID, r.buffered, recount)
	}
	return nil
}

// BufferedFlits returns the total number of flits currently buffered (the
// mirror CheckInvariants recounts), used by drain loops, conservation
// checks and occupancy diagnostics.
func (r *Router) BufferedFlits() int { return r.buffered }

// BufferedHighWater returns the all-time peak of simultaneously
// buffered flits, for queue-occupancy diagnostics.
func (r *Router) BufferedHighWater() int { return r.bufHighWater }
