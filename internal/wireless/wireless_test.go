package wireless

import "testing"

func TestDistClassConstants(t *testing.T) {
	if C2C.LDFactor() != 1.0 || E2E.LDFactor() != 0.5 || SR.LDFactor() != 0.15 {
		t.Fatal("LD factors must match Table III")
	}
	if C2C.NominalMM() != 60 || E2E.NominalMM() != 30 || SR.NominalMM() != 10 {
		t.Fatal("nominal distances must match Table I")
	}
}

func TestBandPlanStructure(t *testing.T) {
	for _, s := range []Scenario{Ideal, Conservative} {
		plan := BandPlan(s)
		if len(plan) != 16 {
			t.Fatalf("%v: %d bands, want 16", s, len(plan))
		}
		if plan[0].CenterGHz != 90 {
			t.Fatalf("%v: band 0 at %v GHz, want 90", s, plan[0].CenterGHz)
		}
		// Monotonically increasing with proper isolation.
		step := s.BWGHz() + s.IsolationGHz()
		for k := 1; k < 16; k++ {
			if plan[k].CenterGHz-plan[k-1].CenterGHz != step {
				t.Fatalf("%v: band spacing %v, want %v", s, plan[k].CenterGHz-plan[k-1].CenterGHz, step)
			}
		}
		// Technology ordering: CMOS -> BiCMOS -> SiGe with frequency.
		for k := 1; k < 16; k++ {
			if plan[k].Tech < plan[k-1].Tech {
				t.Fatalf("%v: tech not monotone at band %d", s, k)
			}
		}
		// SiGe-only above the ~300 GHz limit (implemented at 310).
		for _, b := range plan {
			if b.CenterGHz >= 310 && b.Tech != SiGeHBT {
				t.Fatalf("%v: band at %v GHz uses %v, want SiGe", s, b.CenterGHz, b.Tech)
			}
		}
	}
}

func TestIdealPlanHasExactlyFourCMOSBands(t *testing.T) {
	// The paper: "[Table] III shows only four channels with CMOS and we
	// would need at least 8 channels to be designed with CMOS" — the
	// motivation for SDM.
	if got := len(BandsOf(BandPlan(Ideal), CMOS)); got != 4 {
		t.Fatalf("ideal CMOS bands = %d, want 4", got)
	}
}

func TestBandEPBIncreasesWithIndex(t *testing.T) {
	for _, s := range []Scenario{Ideal, Conservative} {
		plan := BandPlan(s)
		for _, tech := range []Tech{CMOS, BiCMOS, SiGeHBT} {
			idxs := BandsOf(plan, tech)
			for i := 1; i < len(idxs); i++ {
				if plan[idxs[i]].EPBpJ(s) <= plan[idxs[i-1]].EPBpJ(s) {
					t.Fatalf("%v/%v: EPB not increasing", s, tech)
				}
			}
		}
	}
}

func TestOWN256LinksComplete(t *testing.T) {
	links := OWN256Links()
	if len(links) != 12 {
		t.Fatalf("%d links, want 12", len(links))
	}
	seen := map[[2]int]bool{}
	classCount := map[DistClass]int{}
	for _, l := range links {
		key := [2]int{l.SrcCluster, l.DstCluster}
		if seen[key] {
			t.Fatalf("duplicate channel %v", key)
		}
		seen[key] = true
		classCount[l.Class]++
		if l.SrcCluster == l.DstCluster {
			t.Fatal("self channel")
		}
	}
	// Every ordered cluster pair covered.
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s != d && !seen[[2]int{s, d}] {
				t.Fatalf("missing channel %d->%d", s, d)
			}
		}
	}
	if classCount[C2C] != 4 || classCount[E2E] != 4 || classCount[SR] != 4 {
		t.Fatalf("class counts %v, want 4 each", classCount)
	}
}

func TestOWN256TableIPairs(t *testing.T) {
	// Spot-check Table I's named assignments.
	l := LinkBetween(3, 1)
	if l.TxAntenna != "A3" || l.RxAntenna != "B1" || l.Class != C2C {
		t.Fatalf("3->1: %+v", l)
	}
	l = LinkBetween(0, 2)
	if l.TxAntenna != "A0" || l.RxAntenna != "B2" || l.Class != C2C {
		t.Fatalf("0->2: %+v", l)
	}
	l = LinkBetween(0, 3)
	if l.TxAntenna != "C0" || l.RxAntenna != "C3" || l.Class != SR {
		t.Fatalf("0->3: %+v", l)
	}
	l = LinkBetween(0, 1)
	if l.Class != E2E {
		t.Fatalf("0->1 class %v, want E2E", l.Class)
	}
}

func TestOWN1024LinksComplete(t *testing.T) {
	links := OWN1024Links()
	if len(links) != 16 {
		t.Fatalf("%d channels, want 16 (paper: 1024 cores need all 16)", len(links))
	}
	inter, intra := 0, 0
	for _, l := range links {
		if l.Intra() {
			intra++
			if l.Antenna != "D" {
				t.Fatalf("intra-group channel on antenna %s, want D", l.Antenna)
			}
		} else {
			inter++
		}
	}
	if inter != 12 || intra != 4 {
		t.Fatalf("inter=%d intra=%d, want 12/4", inter, intra)
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if GroupLinkBetween(s, d).ID < 0 {
				t.Fatal("missing group channel")
			}
		}
	}
}

func TestTableIVAssignments(t *testing.T) {
	if Config1.TechFor(C2C) != SiGeHBT || Config1.TechFor(E2E) != CMOS || Config1.TechFor(SR) != CMOS {
		t.Fatal("config 1 wrong")
	}
	if Config2.TechFor(C2C) != CMOS || Config2.TechFor(E2E) != BiCMOS || Config2.TechFor(SR) != SiGeHBT {
		t.Fatal("config 2 wrong")
	}
	if Config3.TechFor(C2C) != SiGeHBT || Config3.TechFor(E2E) != BiCMOS || Config3.TechFor(SR) != CMOS {
		t.Fatal("config 3 wrong")
	}
	if Config4.TechFor(C2C) != CMOS || Config4.TechFor(E2E) != CMOS || Config4.TechFor(SR) != BiCMOS {
		t.Fatal("config 4 wrong")
	}
}

func TestPlanAssignsConfiguredTech(t *testing.T) {
	for _, cfg := range AllConfigs() {
		for _, s := range []Scenario{Ideal, Conservative} {
			p := PlanOWN256(cfg, s)
			if len(p.Channels) != 12 {
				t.Fatalf("%v/%v: %d channels", cfg, s, len(p.Channels))
			}
			for _, ch := range p.Channels {
				want := cfg.TechFor(ch.Link.Class)
				if ch.Band.Tech != want {
					t.Fatalf("%v/%v ch %d: band tech %v, want %v", cfg, s, ch.Link.ID, ch.Band.Tech, want)
				}
				if ch.EPBpJ <= 0 {
					t.Fatalf("%v/%v ch %d: EPB %v", cfg, s, ch.Link.ID, ch.EPBpJ)
				}
			}
		}
	}
}

func TestPlanConfig4UsesSDM(t *testing.T) {
	// Config 4 needs 8 CMOS channels on the ideal plan's 4 CMOS bands:
	// SDM reuse is mandatory (the paper's Section V-B discussion).
	p := PlanOWN256(Config4, Ideal)
	shared := 0
	for _, ch := range p.Channels {
		if ch.SDMShared {
			shared++
		}
	}
	if shared < 4 {
		t.Fatalf("config4/ideal SDM-shared channels = %d, want >= 4", shared)
	}
}

// TestFigure5Shape verifies the analytic wireless link-power ordering the
// paper reports: configurations 1 and 3 (SiGe on long range) consume far
// more than 2 and 4; config 2 cuts config 1's power by roughly half or
// more; config 4 by roughly three quarters.
func TestFigure5Shape(t *testing.T) {
	for _, s := range []Scenario{Ideal, Conservative} {
		e := map[Config]float64{}
		for _, c := range AllConfigs() {
			e[c] = PlanOWN256(c, s).MeanEPBpJ()
		}
		if !(e[Config3] >= e[Config1] && e[Config1] > e[Config2] && e[Config2] > e[Config4]) {
			t.Fatalf("%v: ordering violated: %v", s, e)
		}
		red2 := 1 - e[Config2]/e[Config1]
		red4 := 1 - e[Config4]/e[Config1]
		if red2 < 0.35 || red2 > 0.70 {
			t.Fatalf("%v: config2 reduction %.0f%%, paper ~47-60%%", s, red2*100)
		}
		if red4 < 0.60 || red4 > 0.90 {
			t.Fatalf("%v: config4 reduction %.0f%%, paper ~57-80%%", s, red4*100)
		}
	}
}

func TestPlan1024IntraChannelsOnReservedBands(t *testing.T) {
	p := PlanOWN1024(Config4, Ideal)
	if len(p.Channels) != 16 {
		t.Fatalf("%d channels, want 16", len(p.Channels))
	}
	for _, ch := range p.Channels {
		if ch.Link.Intra() && ch.Band.Index < 12 {
			t.Fatalf("intra channel %d on band %d, want >= 12", ch.Link.ID, ch.Band.Index)
		}
	}
	// Inter-group channels follow configured tech.
	for _, ch := range p.Channels {
		if !ch.Link.Intra() {
			if want := p.Config.TechFor(ch.Link.Class); ch.Band.Tech != want {
				t.Fatalf("inter channel %d tech %v, want %v", ch.Link.ID, ch.Band.Tech, want)
			}
		}
	}
}

func TestScenarioBandwidth(t *testing.T) {
	if Ideal.BWGbps() != 32 || Conservative.BWGbps() != 16 {
		t.Fatal("scenario bandwidths must be 32/16 Gb/s")
	}
	if Ideal.IsolationGHz() != 8 || Conservative.IsolationGHz() != 4 {
		t.Fatal("isolation must be 8/4 GHz")
	}
}

func TestStringers(t *testing.T) {
	if C2C.String() != "C2C" || CMOS.String() != "CMOS" || Ideal.String() != "ideal" {
		t.Fatal("stringers broken")
	}
	if Config4.String() != "config4" {
		t.Fatal("config stringer broken")
	}
	if SiGeHBT.String() != "SiGe" || Conservative.String() != "conservative" {
		t.Fatal("stringers broken")
	}
}

func TestValidateSDMAllConfigs(t *testing.T) {
	// Every Table IV configuration under every scenario must produce an
	// interference-free plan: co-channel links are spatially disjoint
	// (the paper's SDM requirement, checked geometrically).
	for _, cfg := range AllConfigs() {
		for _, s := range []Scenario{Ideal, Conservative} {
			p := PlanOWN256(cfg, s)
			if bad := ValidateSDM(p); len(bad) != 0 {
				for _, pair := range bad {
					t.Errorf("%v/%v: co-channel links %s->%s and %s->%s conflict (separation %.1f mm)",
						cfg, s, pair[0].TxAntenna, pair[0].RxAntenna,
						pair[1].TxAntenna, pair[1].RxAntenna, SeparationMM(pair[0], pair[1]))
				}
			}
		}
	}
}

func TestConflictsSameSegment(t *testing.T) {
	// The two directions of one antenna pair must never share a band.
	a, b := LinkBetween(3, 1), LinkBetween(1, 3)
	if !Conflicts(a, b) {
		t.Fatal("same-pair directions must conflict")
	}
}

func TestConflictsCrossingDiagonals(t *testing.T) {
	// The two package diagonals cross at the centre.
	a, b := LinkBetween(3, 1), LinkBetween(0, 2)
	if SeparationMM(a, b) != 0 {
		t.Fatalf("diagonals should intersect: separation %v", SeparationMM(a, b))
	}
	if !Conflicts(a, b) {
		t.Fatal("crossing paths must conflict")
	}
}

func TestSeparationShortRangePairs(t *testing.T) {
	// The two SR pairs sit on opposite die edges: well separated.
	a, b := LinkBetween(0, 3), LinkBetween(1, 2)
	if sep := SeparationMM(a, b); sep < SDMGuardMM {
		t.Fatalf("SR pairs separation %v mm, want >= %v", sep, SDMGuardMM)
	}
	if Conflicts(a, b) {
		t.Fatal("disjoint SR pairs must be SDM-compatible")
	}
}
