package traffic

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestStencilTraceShape(t *testing.T) {
	tr := StencilTrace(64, 3, 100, 1)
	// 64 cores x 4 neighbours x 3 iterations.
	if len(tr.Entries) != 64*4*3 {
		t.Fatalf("entries = %d, want %d", len(tr.Entries), 64*4*3)
	}
	if err := tr.Validate(64); err != nil {
		t.Fatal(err)
	}
	// Every destination is a grid neighbour (wraparound Manhattan
	// distance 1 on an 8x8 grid).
	for _, e := range tr.Entries {
		sr, sc := e.Src/8, e.Src%8
		dr, dc := e.Dst/8, e.Dst%8
		wd := func(a, b, n int) int {
			d := (a - b + n) % n
			if n-d < d {
				d = n - d
			}
			return d
		}
		if wd(sr, dr, 8)+wd(sc, dc, 8) != 1 {
			t.Fatalf("non-neighbour send %d -> %d", e.Src, e.Dst)
		}
	}
}

func TestStencilTraceSorted(t *testing.T) {
	tr := StencilTrace(16, 5, 50, 2)
	for i := 1; i < len(tr.Entries); i++ {
		if tr.Entries[i].Cycle < tr.Entries[i-1].Cycle {
			t.Fatal("trace not sorted")
		}
	}
}

// A period shorter than four cycles leaves no room for jitter: every
// iteration's sends go out on its first cycle, whatever the seed, and the
// generator draws nothing rather than panic on an empty range.
func TestStencilTraceShortPeriodHasNoJitter(t *testing.T) {
	for _, period := range []uint64{0, 1, 3} {
		for _, seed := range []uint64{1, 2} {
			tr := StencilTrace(16, 3, period, seed)
			if len(tr.Entries) != 16*4*3 {
				t.Fatalf("period %d: %d entries, want %d", period, len(tr.Entries), 16*4*3)
			}
			for i, e := range tr.Entries {
				if it := uint64(i / (16 * 4)); e.Cycle != it*period {
					t.Fatalf("period %d seed %d: entry %d at cycle %d, want iteration %d's start %d", period, seed, i, e.Cycle, it, it*period)
				}
			}
		}
	}
}

// The jitter bound period/4 fits a 32-bit int up to MaxStencilPeriod;
// one cycle more panics and names the bound instead of drawing from a
// range that differs between platforms.
func TestStencilTracePeriodBound(t *testing.T) {
	tr := StencilTrace(16, 1, MaxStencilPeriod, 1)
	for _, e := range tr.Entries {
		if e.Cycle >= MaxStencilPeriod/4 {
			t.Fatalf("entry at cycle %d, past the jitter bound %d", e.Cycle, MaxStencilPeriod/4)
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "MaxStencilPeriod 8589934591") {
			t.Fatalf("StencilTrace past the bound: recovered %q, want a panic naming MaxStencilPeriod", msg)
		}
	}()
	StencilTrace(16, 1, MaxStencilPeriod+1, 1)
}

func TestAllReduceTraceRounds(t *testing.T) {
	tr := AllReduceTrace(16, 0, 100)
	// log2(16) = 4 rounds x 16 cores.
	if len(tr.Entries) != 4*16 {
		t.Fatalf("entries = %d, want 64", len(tr.Entries))
	}
	if err := tr.Validate(16); err != nil {
		t.Fatal(err)
	}
	// Round k sends are XOR-2^k partner exchanges: a bijection.
	for k := 0; k < 4; k++ {
		seen := map[int]bool{}
		for _, e := range tr.Entries {
			if e.Cycle != uint64(k)*100 {
				continue
			}
			if e.Dst != e.Src^(1<<uint(k)) {
				t.Fatalf("round %d: %d -> %d not a partner exchange", k, e.Src, e.Dst)
			}
			if seen[e.Src] {
				t.Fatalf("round %d: duplicate source %d", k, e.Src)
			}
			seen[e.Src] = true
		}
		if len(seen) != 16 {
			t.Fatalf("round %d: %d sources, want 16", k, len(seen))
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Entries: []TraceEntry{{Src: 0, Dst: 99}}}
	if err := tr.Validate(16); err == nil {
		t.Fatal("expected out-of-range error")
	}
	tr = &Trace{Entries: []TraceEntry{{Src: 3, Dst: 3}}}
	if err := tr.Validate(16); err == nil {
		t.Fatal("expected self-send error")
	}
}

func TestReplayEmitsInOrder(t *testing.T) {
	tr := &Trace{Entries: []TraceEntry{
		{Cycle: 5, Src: 0, Dst: 1},
		{Cycle: 5, Src: 0, Dst: 2}, // same cycle: emitted next cycle
		{Cycle: 20, Src: 0, Dst: 3},
	}}
	gens := tr.PerSource(4, 5, nil)
	g := gens[0]
	g.MeasureTo = 1000
	var got []emitted
	for c := uint64(0); c < 40; c++ {
		if p := g.Generate(c); p != nil {
			got = append(got, emitted{cycle: c, dst: p.Dst, numFlits: p.NumFlits})
		}
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d packets, want 3", len(got))
	}
	if got[0].cycle != 5 || got[1].cycle != 6 {
		t.Fatalf("same-cycle entries must serialize: %d, %d", got[0].cycle, got[1].cycle)
	}
	for _, e := range got {
		if e.numFlits != 5 {
			t.Fatalf("packet to %d has %d flits, want the run's 5", e.dst, e.numFlits)
		}
	}
	if !g.Done() {
		t.Fatal("replay should be done")
	}
}

func TestReplayOtherSourcesEmpty(t *testing.T) {
	tr := &Trace{Entries: []TraceEntry{{Cycle: 0, Src: 1, Dst: 2}}}
	gens := tr.PerSource(4, 5, nil)
	if gens[0].Generate(0) != nil || !gens[0].Done() {
		t.Fatal("source 0 has no entries")
	}
	if gens[1].Generate(0) == nil {
		t.Fatal("source 1 should emit")
	}
}

func TestStencilDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := StencilTrace(16, 2, 40, seed)
		b := StencilTrace(16, 2, 40, seed)
		if len(a.Entries) != len(b.Entries) {
			return false
		}
		for i := range a.Entries {
			if a.Entries[i] != b.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTrace builds a trace from (cycle, src, dst) byte triples — the
// endpoints signed, so some fall below zero — over cores in [0, 64).
// Validate must accept it exactly when every endpoint is a core and no
// entry is a self-send. An accepted trace, split by PerSource and stepped
// every cycle, must emit each entry exactly once, from its source to its
// destination, in per-source cycle order, at its cycle or one cycle after
// the source's previous emission, whichever is later; and a source's
// NextPending must never name a cycle after its next emission, so a
// source that sleeps until then misses nothing.
func FuzzTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, coreByte uint8) {
		cores := int(coreByte % 64)
		tr := &Trace{}
		valid := true
		for i := 0; i+2 < len(data); i += 3 {
			e := TraceEntry{Cycle: uint64(data[i]), Src: int(int8(data[i+1])), Dst: int(int8(data[i+2]))}
			valid = valid && e.Src >= 0 && e.Src < cores && e.Dst >= 0 && e.Dst < cores && e.Src != e.Dst
			tr.Entries = append(tr.Entries, e)
		}
		if err := tr.Validate(cores); (err == nil) != valid {
			t.Fatalf("%d cores, entries %v: Validate = %v, want accepted %v", cores, tr.Entries, err, valid)
		}
		if !valid {
			return
		}
		// What each source must emit: its entries in cycle order, ties
		// in trace order.
		want := make([][]TraceEntry, cores)
		byCycle := slices.Clone(tr.Entries)
		slices.SortStableFunc(byCycle, func(a, b TraceEntry) int { return cmp.Compare(a.Cycle, b.Cycle) })
		last := uint64(0)
		for _, e := range byCycle {
			want[e.Src] = append(want[e.Src], e)
			last = max(last, e.Cycle)
		}

		gens := tr.PerSource(cores, 2, nil)
		emitted := make([]int, cores)
		lastEmit := make([]uint64, cores)
		promised := make([]uint64, cores) // latest NextPending since the last emission
		for cycle := uint64(0); cycle <= last+uint64(len(byCycle)); cycle++ {
			for s, g := range gens {
				at, ok := g.NextPending(cycle)
				if ok == g.Done() || (ok && at < cycle) {
					t.Fatalf("source %d, cycle %d: NextPending = (%d, %v), Done = %v", s, cycle, at, ok, g.Done())
				}
				promised[s] = max(promised[s], at)
				p := g.Generate(cycle)
				if p == nil {
					continue
				}
				k := emitted[s]
				if k >= len(want[s]) {
					t.Fatalf("source %d, cycle %d: packet to %d beyond its %d entries", s, cycle, p.Dst, len(want[s]))
				}
				e := want[s][k]
				due := e.Cycle
				if k > 0 {
					due = max(due, lastEmit[s]+1)
				}
				if p.Src != s || p.Dst != e.Dst || cycle != due {
					t.Fatalf("source %d, entry %d %+v: packet %d->%d at cycle %d, want %d->%d at cycle %d", s, k, e, p.Src, p.Dst, cycle, s, e.Dst, due)
				}
				if promised[s] > cycle {
					t.Fatalf("source %d: NextPending named cycle %d, after its emission at %d", s, promised[s], cycle)
				}
				emitted[s]++
				lastEmit[s], promised[s] = cycle, 0
			}
		}
		for s, g := range gens {
			if emitted[s] != len(want[s]) || !g.Done() {
				t.Fatalf("source %d emitted %d of %d entries (Done %v)", s, emitted[s], len(want[s]), g.Done())
			}
		}
	})
}
