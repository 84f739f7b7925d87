// Conformance harness: differential reference-oracle runs, checked runs
// across the paper architectures and the random-network fuzz generator,
// and the metamorphic properties (tile symmetry, load monotonicity,
// pooled==unpooled==checked identity). Quick mode runs a handful of
// seeds; set CHECK_CAMPAIGN (optionally to an iteration count) for the
// long-running campaign that `make check` and the nightly CI job drive.
package check_test

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"ownsim/internal/check"
	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/flightrec"
	"ownsim/internal/fuzznet"
	"ownsim/internal/noc"
	"ownsim/internal/photonic"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/sbus"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// campaignIters scales a loop for campaign mode: quick iterations by
// default, more when CHECK_CAMPAIGN is set (a value >= 2 overrides the
// count, any other value selects the default campaign depth).
func campaignIters(quick, campaign int) int {
	s := os.Getenv("CHECK_CAMPAIGN")
	if s == "" {
		return quick
	}
	if v, err := strconv.Atoi(s); err == nil && v >= 2 {
		return v
	}
	return campaign
}

// buildOWNCluster16 assembles one 16-tile OWN cluster in isolation: a
// full MWSR photonic crossbar with one core per tile, the oracle's
// small-configuration target. Port layout per tile router: 0 terminal,
// 1..15 photonic write ports (ascending remote-tile order), 16 the home
// waveguide's read port.
func buildOWNCluster16() *fabric.Network {
	const tiles = 16
	wp := func(w, t int) int {
		if t < w {
			return 1 + t
		}
		return t
	}
	n := fabric.New("own16", tiles, power.NewMeter(nil))
	n.Diameter = 2 // source tile and destination tile
	routers := make([]*router.Router, tiles)
	for i := 0; i < tiles; i++ {
		tile := i
		routers[i] = n.AddRouter(router.Config{
			ID: tile, NumPorts: 17, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == tile {
					return 0, 3
				}
				return wp(tile, p.Dst), 3
			},
		})
	}
	photonic.BuildCrossbar(n, "own16", routers, photonic.PortMap{
		WriterPort: wp,
		ReaderPort: func(int) int { return 16 },
	}, photonic.CrossbarSpec{
		Tiles: tiles, SerializeCy: 1, PropCy: 2, TokenHopCy: 1, NumVCs: 2, BufDepth: 4,
	})
	for c := 0; c < tiles; c++ {
		n.AddTerminal(c, routers[c], 0, 0)
	}
	return n
}

// buildMesh4x4 assembles a 4x4 concentrated electrical mesh (64 cores,
// XY dimension-order routing) — the oracle's second small configuration.
// The paper-scale builder (topology.BuildCMesh) only accepts 256/1024
// cores, so the conformance shape is wired directly from the same
// primitives.
func buildMesh4x4() *fabric.Network {
	const (
		side      = 4
		conc      = 4
		portEast  = 4
		portWest  = 5
		portNorth = 6
		portSouth = 7
	)
	nRouters := side * side
	n := fabric.New("mesh4x4", nRouters*conc, power.NewMeter(nil))
	n.CoresPerTile = conc
	n.Diameter = 2*(side-1) + 1
	routers := make([]*router.Router, nRouters)
	for r := 0; r < nRouters; r++ {
		rx, ry := r%side, r/side
		routers[r] = n.AddRouter(router.Config{
			ID: r, NumPorts: 8, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				const all = uint32(3)
				dr := p.Dst / conc
				dx, dy := dr%side, dr/side
				switch {
				case dx > rx:
					return portEast, all
				case dx < rx:
					return portWest, all
				case dy > ry:
					return portNorth, all
				case dy < ry:
					return portSouth, all
				default:
					return p.Dst % conc, all
				}
			},
		})
	}
	spec := fabric.LinkSpec{Delay: 2, CreditDelay: 1, SerializeCy: 1}
	for r := 0; r < nRouters; r++ {
		x, y := r%side, r/side
		if x+1 < side {
			e := r + 1
			n.Connect(routers[r], portEast, routers[e], portWest, spec)
			n.Connect(routers[e], portWest, routers[r], portEast, spec)
		}
		if y+1 < side {
			s := r + side
			n.Connect(routers[r], portNorth, routers[s], portSouth, spec)
			n.Connect(routers[s], portSouth, routers[r], portNorth, spec)
		}
	}
	for c := 0; c < nRouters*conc; c++ {
		n.AddTerminal(c, routers[c/conc], c%conc, c%conc)
	}
	return n
}

// buildOptXB256 is the single-group crossbar at its smallest paper scale:
// 64 tiles of four cores, 63 writers on every home waveguide, whose
// writers and receivers sit on the router ports with no VC demux between.
func buildOptXB256() *fabric.Network {
	return topology.BuildOptXB(topology.Params{Cores: 256, Meter: power.NewMeter(nil)})
}

// TestConformanceOracleOWNCluster diffs the full engine against the
// sequential reference interpreter on the 16-tile OWN cluster: per-packet
// delivery order and latency must match event for event.
func TestConformanceOracleOWNCluster(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1337} {
		err := fabric.DiffRuns(buildOWNCluster16,
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: seed},
			fabric.RunSpec{Warmup: 200, Measure: 1200})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestConformanceOracleCMesh4x4 diffs engine vs reference on the 4x4
// concentrated mesh.
func TestConformanceOracleCMesh4x4(t *testing.T) {
	for _, seed := range []uint64{2, 77} {
		err := fabric.DiffRuns(buildMesh4x4,
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, PktFlits: 3, Seed: seed},
			fabric.RunSpec{Warmup: 200, Measure: 1500})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestConformanceOracleOptXB diffs engine vs reference on the OptXB-256
// crossbar, at half its saturation load.
func TestConformanceOracleOptXB(t *testing.T) {
	err := fabric.DiffRuns(buildOptXB256,
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 31},
		fabric.RunSpec{Warmup: 200, Measure: 1500})
	if err != nil {
		t.Error(err)
	}
}

// TestConformanceOracleRandomNetworks diffs engine vs reference on the
// fuzz generator's irregular up*/down* shapes.
func TestConformanceOracleRandomNetworks(t *testing.T) {
	iters := campaignIters(4, 32)
	for i := 0; i < iters; i++ {
		seed := uint64(0x9e3779b97f4a7c15) * uint64(i+1)
		nR := int(seed%6) + 3
		err := fabric.DiffRuns(func() *fabric.Network { return fuzznet.RandomUpDownNetwork(seed, nR) },
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, PktFlits: 3, Seed: seed},
			fabric.RunSpec{Warmup: 100, Measure: 1000})
		if err != nil {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
}

// runChecked installs a fresh checker on n, runs the given traffic and
// returns the result plus the checker.
func runChecked(t *testing.T, n *fabric.Network, ts fabric.TrafficSpec, rs fabric.RunSpec) (fabric.Result, *check.Checker) {
	t.Helper()
	c := check.New()
	n.InstallChecker(c, nil)
	res := n.Run(ts, rs)
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("%s: structural invariants after run: %v", n.Name, err)
	}
	return res, c
}

// TestConformanceCheckedRunsClean runs the checker over the two oracle
// shapes and asserts zero violations with live wiring (events observed on
// every monitor class).
func TestConformanceCheckedRunsClean(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *fabric.Network
		rate  float64
	}{
		{"own16", buildOWNCluster16, 0.05},
		{"mesh4x4", buildMesh4x4, 0.02},
	} {
		n := tc.build()
		res, c := runChecked(t, n,
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: tc.rate, PktFlits: 3, Seed: 11},
			fabric.RunSpec{Warmup: 200, Measure: 1500})
		if !res.Drained {
			t.Errorf("%s: checked run failed to drain", tc.name)
		}
		if err := c.Err(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if c.Events() == 0 {
			t.Errorf("%s: checker wired but observed no events", tc.name)
		}
		if snap := n.CheckerSnapshot(); snap != nil {
			t.Errorf("%s: clean run captured a violation snapshot: %s", tc.name, snap.Reason)
		}
	}
}

// TestConformanceCheckedSystems256 audits every paper architecture at 256
// cores under the full invariant set. The window is at least 2x (warmup)
// and 6x (measure) the slowest network's latency, p-Clos's 493 cycles, so
// that the saturation verdict reads capacity, not how the network fills.
func TestConformanceCheckedSystems256(t *testing.T) {
	for _, name := range core.SystemNames() {
		sys := core.NewSystem(name, 256, wireless.Config4, wireless.Ideal)
		res, vs := sys.RunChecked(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.004, Seed: 7},
			fabric.RunSpec{Warmup: 1000, Measure: 3000})
		if !res.Drained {
			t.Errorf("%s: checked run failed to drain", name)
		}
		for _, v := range vs {
			t.Errorf("%s: %s", name, v)
		}
	}
}

// TestConformanceCampaignRandomNetworks is the seeded fuzz campaign:
// random up*/down* networks under the full checker, quick by default and
// deep under CHECK_CAMPAIGN. The checked run replays a uniform Bernoulli
// workload as a trace (fuzznet.UniformTrace), which runs until every
// packet has ejected: a Run on 3 to 8 cores can read the few packets in
// flight at its window's edge as "saturated" and skip the drain.
func TestConformanceCampaignRandomNetworks(t *testing.T) {
	const rate, pktFlits, window = 0.02, 3, 1300
	iters := campaignIters(6, 64)
	for i := 0; i < iters; i++ {
		seed := uint64(0xbf58476d1ce4e5b9) * uint64(i+1)
		nR := int(seed%6) + 3
		n := fuzznet.RandomUpDownNetwork(seed, nR)
		c := check.New()
		n.InstallChecker(c, nil)
		tr := fuzznet.UniformTrace(n.NumCores, rate, pktFlits, seed, window)
		res := n.RunTrace(tr, pktFlits, fabric.TrafficSpec{}, 5*window)
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("seed %#x: structural invariants after run: %v", seed, err)
		}
		if !res.Drained || res.Packets != uint64(len(tr.Entries)) {
			t.Errorf("seed %#x: %d of %d packets delivered", seed, res.Packets, len(tr.Entries))
		}
		if err := c.Err(); err != nil {
			t.Errorf("seed %#x: %v", seed, err)
			if snap := n.CheckerSnapshot(); snap != nil {
				t.Logf("seed %#x dump: %s (cycle %d)", seed, snap.Reason, snap.Cycle)
			}
		}
		if c.Events() == 0 {
			t.Errorf("seed %#x: checker observed no events", seed)
		}
	}
}

// TestConformanceResultIdentityAcrossModes is the pooled == unpooled ==
// checked metamorphic identity: the same seed must produce byte-identical
// Results with the checker installed and in reference mode (no pooling,
// no engine sleep).
func TestConformanceResultIdentityAcrossModes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *fabric.Network
		rate  float64
	}{
		{"own16", buildOWNCluster16, 0.03},
		{"mesh4x4", buildMesh4x4, 0.03},
		{"optxb256", buildOptXB256, 0.004},
	} {
		ts := fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: tc.rate, PktFlits: 3, Seed: 23}
		rs := fabric.RunSpec{Warmup: 200, Measure: 1500}
		plain := tc.build().Run(ts, rs)

		checked, c := runChecked(t, tc.build(), ts, rs)
		if err := c.Err(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if plain != checked {
			t.Errorf("%s: checker perturbed the result:\nplain   %+v\nchecked %+v", tc.name, plain, checked)
		}

		ref := tc.build()
		ref.SetReferenceMode()
		refRes := ref.Run(ts, rs)
		if plain != refRes {
			t.Errorf("%s: reference mode perturbed the result:\nplain     %+v\nreference %+v", tc.name, plain, refRes)
		}
	}
}

// perSourceLatency aggregates a delivery log into per-source mean packet
// latency (creation to ejection).
func perSourceLatency(log *check.DeliveryLog, cores int) []float64 {
	sum := make([]float64, cores)
	cnt := make([]float64, cores)
	for _, e := range log.Events {
		sum[e.Src] += float64(e.EjectedAt - e.CreatedAt)
		cnt[e.Src]++
	}
	for i := range sum {
		if cnt[i] > 0 {
			sum[i] /= cnt[i]
		}
	}
	return sum
}

// TestConformanceTileSymmetryOWNCluster exploits the crossbar's full
// tile-permutation symmetry: under uniform traffic every tile must see
// statistically the same mean latency.
func TestConformanceTileSymmetryOWNCluster(t *testing.T) {
	n := buildOWNCluster16()
	log := n.RecordDeliveries()
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 3},
		fabric.RunSpec{Warmup: 300, Measure: 6000})
	if !res.Drained {
		t.Fatal("failed to drain")
	}
	lat := perSourceLatency(log, 16)
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= 16
	for i, l := range lat {
		if dev := math.Abs(l-mean) / mean; dev > 0.20 {
			t.Errorf("tile %d mean latency %.2f deviates %.0f%% from grand mean %.2f (symmetry breach)",
				i, l, dev*100, mean)
		}
	}
}

// TestConformanceRotationSymmetryMesh exploits the mesh's 180-degree
// rotational symmetry: under uniform traffic the two rotation halves must
// see matching mean latency.
func TestConformanceRotationSymmetryMesh(t *testing.T) {
	n := buildMesh4x4()
	log := n.RecordDeliveries()
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, PktFlits: 3, Seed: 5},
		fabric.RunSpec{Warmup: 300, Measure: 8000})
	if !res.Drained {
		t.Fatal("failed to drain")
	}
	lat := perSourceLatency(log, 64)
	var lo, hi float64
	for c := 0; c < 32; c++ {
		lo += lat[c]
		hi += lat[63-c]
	}
	lo, hi = lo/32, hi/32
	if diff := math.Abs(lo-hi) / ((lo + hi) / 2); diff > 0.15 {
		t.Errorf("rotation halves diverge %.0f%%: lower %.2f vs upper %.2f", diff*100, lo, hi)
	}
}

// TestConformanceLoadMonotonicity drives the mesh at increasing
// sub-saturation loads: mean latency must not decrease (within a small
// stochastic tolerance).
func TestConformanceLoadMonotonicity(t *testing.T) {
	loads := []float64{0.005, 0.01, 0.02, 0.04, 0.06}
	prev := -1.0
	for _, rate := range loads {
		res := buildMesh4x4().Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: rate, PktFlits: 3, Seed: 9},
			fabric.RunSpec{Warmup: 500, Measure: 4000})
		if !res.Drained {
			t.Fatalf("rate %v: saturated inside the monotonicity band", rate)
		}
		if prev >= 0 && res.AvgLatency < prev*0.97-1.0 {
			t.Errorf("rate %v: mean latency %.2f fell below previous load's %.2f", rate, res.AvgLatency, prev)
		}
		prev = res.AvgLatency
	}
}

// TestConformanceCorruptedTokenTripsDump is the deliberate fault
// injection: forging a second token grant while the waveguide is held
// must trip the checker and capture a flight-recorder dump naming the
// violating channel.
func TestConformanceCorruptedTokenTripsDump(t *testing.T) {
	n := buildOWNCluster16()
	c := check.New()
	var cbViolation *check.Violation
	var cbSnap *flightrec.Snapshot
	n.InstallChecker(c, func(v check.Violation, snap *flightrec.Snapshot) {
		if cbViolation == nil {
			vv := v
			cbViolation, cbSnap = &vv, snap
		}
	})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 13},
		fabric.RunSpec{Warmup: 100, Measure: 800})
	if !res.Drained || c.Total() != 0 {
		t.Fatalf("fixture run not clean: drained=%v violations=%d", res.Drained, c.Total())
	}

	// Corrupt the arbitration stream on tile 0's home waveguide: two
	// grants with no release in between.
	ch := n.Channels[0]
	cy := n.Eng.Cycle()
	a := &noc.Packet{ID: 1 << 50, NumFlits: 2}
	b := &noc.Packet{ID: 1<<50 + 1, NumFlits: 2}
	ch.Tap.Emit(noc.Event{Kind: noc.EvGrant, Cycle: cy, Pkt: a, A: 3})
	ch.Tap.Emit(noc.Event{Kind: noc.EvGrant, Cycle: cy, Pkt: b, A: 5}) // duplicate grant

	if c.Total() != 1 {
		t.Fatalf("duplicate grant produced %d violations, want 1: %v", c.Total(), c.Violations())
	}
	v := c.Violations()[0]
	if v.Rule != check.RuleToken {
		t.Fatalf("rule = %q, want %q", v.Rule, check.RuleToken)
	}
	const wantChan = "photonic.own16/home0.0"
	if v.Component != wantChan {
		t.Fatalf("violation names %q, want %q", v.Component, wantChan)
	}
	snap := n.CheckerSnapshot()
	if snap == nil {
		t.Fatal("violation did not capture a dump")
	}
	if !strings.Contains(snap.Reason, wantChan) || !strings.Contains(snap.Reason, "token") {
		t.Fatalf("dump reason %q does not name the violating channel", snap.Reason)
	}
	if cbViolation == nil || cbSnap != snap {
		t.Fatal("onViolation callback missed the violation or its snapshot")
	}
}

// nullCredit absorbs writer credits for the standalone channel harness.
type nullCredit struct{}

func (nullCredit) ReceiveCredit(port, vc int) {}

// loopbackRx immediately recredits delivered flits.
type loopbackRx struct{ rx *sbus.Rx }

func (r *loopbackRx) ReceiveFlit(port int, f *noc.Flit) { r.rx.ReturnCredit(f.VC) }

// TestConformanceDisabledHooksAllocFree pins the disabled-tap bargain
// from the checker's side: with no checker installed (no subscriber on
// the channel's tap) the channel send/tick path allocates nothing in
// steady state.
func TestConformanceDisabledHooksAllocFree(t *testing.T) {
	var now uint64
	ch := sbus.NewChannel("t", 1, 0, 1)
	w := ch.AddWriter(nullCredit{}, 0, 1, 8)
	rx := &loopbackRx{}
	rx.rx = ch.AddRx(rx, 0, 1, 4)
	p := &noc.Packet{ID: 1, NumFlits: 2}
	fl := noc.MakeFlits(p)
	iter := func() {
		for _, f := range fl {
			w.Send(f)
		}
		for i := 0; i < 8; i++ {
			ch.Tick(now)
			now++
		}
	}
	iter()
	iter()
	if allocs := testing.AllocsPerRun(100, iter); allocs != 0 {
		t.Errorf("nil-checker send/tick path allocates %v per packet, want 0", allocs)
	}
}
