package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"ownsim/internal/noc"
	"ownsim/internal/sim"
)

func TestPermutationPatternsAreBijections(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, p := range []Pattern{BitReversal, Transpose, Shuffle, Neighbor} {
			seen := make([]bool, n)
			for s := 0; s < n; s++ {
				d := Dest(p, s, n, nil)
				if d < 0 || d >= n {
					t.Fatalf("%v n=%d src=%d: dest %d out of range", p, n, s, d)
				}
				if seen[d] {
					t.Fatalf("%v n=%d: dest %d hit twice", p, n, d)
				}
				seen[d] = true
			}
		}
	}
}

func TestBitReversalKnownValues(t *testing.T) {
	// n=256: 8 bits. 0b00000001 -> 0b10000000.
	if d := Dest(BitReversal, 1, 256, nil); d != 128 {
		t.Fatalf("BR(1) = %d, want 128", d)
	}
	if d := Dest(BitReversal, 0b00000011, 256, nil); d != 0b11000000 {
		t.Fatalf("BR(3) = %d, want 192", d)
	}
	// Palindrome maps to itself.
	if d := Dest(BitReversal, 0b10000001, 256, nil); d != 0b10000001 {
		t.Fatalf("BR(129) = %d, want 129", d)
	}
}

func TestTransposeKnownValues(t *testing.T) {
	// n=256: 16x16. (1,2)=18 -> (2,1)=33.
	if d := Dest(Transpose, 18, 256, nil); d != 33 {
		t.Fatalf("MT(18) = %d, want 33", d)
	}
	// Diagonal is a fixed point.
	if d := Dest(Transpose, 17, 256, nil); d != 17 {
		t.Fatalf("MT(17) = %d, want 17", d)
	}
}

func TestShuffleKnownValues(t *testing.T) {
	// n=256: rotate left 1 over 8 bits. 0b10000000 -> 0b00000001.
	if d := Dest(Shuffle, 128, 256, nil); d != 1 {
		t.Fatalf("PS(128) = %d, want 1", d)
	}
	if d := Dest(Shuffle, 5, 256, nil); d != 10 {
		t.Fatalf("PS(5) = %d, want 10", d)
	}
}

func TestNeighborKnownValues(t *testing.T) {
	// n=256: row 0: 0->1, 15->0 (wrap).
	if d := Dest(Neighbor, 0, 256, nil); d != 1 {
		t.Fatalf("NBR(0) = %d, want 1", d)
	}
	if d := Dest(Neighbor, 15, 256, nil); d != 0 {
		t.Fatalf("NBR(15) = %d, want 0", d)
	}
}

func TestUniformNeverSelf(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		if Dest(Uniform, 7, 64, rng) == 7 {
			t.Fatal("uniform produced self-destination")
		}
	}
}

func TestUniformCoversAll(t *testing.T) {
	rng := sim.NewRNG(2)
	const n = 16
	seen := make([]bool, n)
	for i := 0; i < 5000; i++ {
		seen[Dest(Uniform, 3, n, rng)] = true
	}
	for d, ok := range seen {
		if d != 3 && !ok {
			t.Fatalf("destination %d never drawn", d)
		}
	}
}

func TestHotspotBias(t *testing.T) {
	rng := sim.NewRNG(3)
	hits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if Dest(Hotspot, 9, 64, rng) == 0 {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.15 || frac > 0.30 {
		t.Fatalf("hotspot fraction to core 0 = %v, want ~0.21", frac)
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range append(AllPaperPatterns(), Hotspot) {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

func TestBernoulliRate(t *testing.T) {
	const rate, flits, cycles = 0.2, 5, 200000
	g := NewBernoulli(3, 64, Uniform, rate, flits, 42, nil)
	genFlits := 0
	for c := uint64(0); c < cycles; c++ {
		if p := g.Generate(c); p != nil {
			genFlits += p.NumFlits
		}
	}
	got := float64(genFlits) / cycles
	if math.Abs(got-rate) > 0.01 {
		t.Fatalf("offered load %v flits/cycle, want %v", got, rate)
	}
}

func TestBernoulliMeasureWindow(t *testing.T) {
	g := NewBernoulli(1, 64, Uniform, 1.0, 1, 7, nil)
	g.MeasureFrom, g.MeasureTo = 100, 200
	for c := uint64(0); c < 300; c++ {
		p := g.Generate(c)
		if p == nil {
			continue
		}
		want := c >= 100 && c < 200
		if p.Measure != want {
			t.Fatalf("cycle %d: Measure=%v, want %v", c, p.Measure, want)
		}
	}
}

func TestBernoulliClassifier(t *testing.T) {
	g := NewBernoulli(1, 64, Uniform, 1.0, 1, 7, func(src, dst int) int { return 3 })
	for c := uint64(0); c < 100; c++ {
		if p := g.Generate(c); p != nil {
			if p.Class != 3 {
				t.Fatalf("Class = %d, want 3", p.Class)
			}
			return
		}
	}
	t.Fatal("no packet generated at rate 1.0")
}

// A pooled generator takes every packet from its pool: once the pool
// holds one, generating a packet allocates nothing. Trace replay builds
// its packets the same way.
func TestBernoulliPooledGenerateAllocatesNothing(t *testing.T) {
	tr := &Trace{}
	for c := uint64(0); c < 200; c++ {
		tr.Entries = append(tr.Entries, TraceEntry{Cycle: c, Src: 1, Dst: 2})
	}
	for _, g := range []interface {
		Generate(uint64) *noc.Packet
		UsePool(*noc.Pool)
	}{NewBernoulli(1, 64, Uniform, 1.0, 1, 7, nil), tr.PerSource(64, 1, nil)[1]} {
		var pool noc.Pool
		g.UsePool(&pool)
		cycle := uint64(0)
		generate := func() {
			p := g.Generate(cycle)
			if p == nil {
				t.Fatalf("%T: cycle %d: no packet", g, cycle)
			}
			cycle++
			noc.Recycle(p)
		}
		generate() // the pool's first packet
		if allocs := testing.AllocsPerRun(100, generate); allocs != 0 {
			t.Errorf("%T: pooled Generate allocates %v times per packet, want 0", g, allocs)
		}
		if pool.News != 1 {
			t.Errorf("%T: pool made %d packets, want 1", g, pool.News)
		}
	}
}

func TestBernoulliUniqueIDsAcrossSources(t *testing.T) {
	g1 := NewBernoulli(1, 64, Uniform, 1.0, 1, 7, nil)
	g2 := NewBernoulli(2, 64, Uniform, 1.0, 1, 7, nil)
	ids := map[uint64]bool{}
	for c := uint64(0); c < 500; c++ {
		for _, g := range []*Bernoulli{g1, g2} {
			if p := g.Generate(c); p != nil {
				if ids[p.ID] {
					t.Fatalf("duplicate packet ID %d", p.ID)
				}
				ids[p.ID] = true
			}
		}
	}
}

func TestDestPropertyInRange(t *testing.T) {
	f := func(seed uint64, src uint16) bool {
		n := 256
		rng := sim.NewRNG(seed)
		s := int(src) % n
		for _, p := range []Pattern{Uniform, BitReversal, Transpose, Shuffle, Neighbor, Hotspot} {
			d := Dest(p, s, n, rng)
			if d < 0 || d >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrtPanicsOnNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	isqrt(17)
}
