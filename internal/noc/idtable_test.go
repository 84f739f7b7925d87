package noc

import (
	"sort"
	"testing"
)

// TestIDTableMatchesMap drives the table and a Go map with the same
// random puts, gets and deletes, over ID sets of three shapes: small
// consecutive IDs (the tests' packets), the traffic emitter's src<<40|seq
// and IDs that differ only above bit 40, which a weak hash would pile into
// one cluster.
func TestIDTableMatchesMap(t *testing.T) {
	shapes := map[string]func(k uint64) uint64{
		"small":     func(k uint64) uint64 { return k },
		"emitter":   func(k uint64) uint64 { return (k%61)<<40 | k/61 },
		"high-only": func(k uint64) uint64 { return k << 40 },
	}
	for name, id := range shapes {
		var tab IDTable[int]
		ref := make(map[uint64]*int)
		x := uint64(0x9e3779b97f4a7c15)
		for step := 0; step < 200000; step++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := id(x % 3000)
			switch op := x >> 60; {
			case op < 7:
				p := new(int)
				tab.Put(k, p)
				ref[k] = p
			case op < 13:
				if got := tab.Delete(k); got != ref[k] {
					t.Fatalf("%s step %d: Delete(%d) = %p, want %p", name, step, k, got, ref[k])
				}
				delete(ref, k)
			default:
				if got := tab.Get(k); got != ref[k] {
					t.Fatalf("%s step %d: Get(%d) = %p, want %p", name, step, k, got, ref[k])
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("%s step %d: Len = %d, want %d", name, step, tab.Len(), len(ref))
			}
		}
		var got []uint64
		tab.Range(func(id uint64, p *int) {
			if ref[id] != p {
				t.Fatalf("%s: Range gave %d -> %p, want %p", name, id, p, ref[id])
			}
			got = append(got, id)
		})
		if len(got) != len(ref) {
			t.Fatalf("%s: Range visited %d IDs, want %d", name, len(got), len(ref))
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("%s: Range visited %d twice", name, got[i])
			}
		}
	}
}

// TestIDTableZeroIDAndEmpty pins the cases a sentinel ID would break: ID 0
// is an ordinary key, and the zero table answers every call.
func TestIDTableZeroIDAndEmpty(t *testing.T) {
	var tab IDTable[int]
	if tab.Get(0) != nil || tab.Delete(0) != nil || tab.Len() != 0 {
		t.Fatal("empty table holds ID 0")
	}
	five := 5
	tab.Put(0, &five)
	if tab.Get(0) != &five || tab.Get(1) != nil {
		t.Fatalf("Get(0) = %p, Get(1) = %p; want %p, nil", tab.Get(0), tab.Get(1), &five)
	}
	if tab.Delete(0) != &five || tab.Len() != 0 {
		t.Fatalf("Delete(0) did not return the stored state (Len %d)", tab.Len())
	}
}

// TestIDTableGrowsLogarithmically pins the allocation bargain: holding up
// to n IDs costs one table per doubling, and a steady churn of insertions
// and deletions at that size allocates nothing. Growths are counted from
// the table itself, since testing.AllocsPerRun counts every malloc in the
// process.
func TestIDTableGrowsLogarithmically(t *testing.T) {
	state := new(int)
	const live = 5000
	var tab IDTable[int]
	growths := 0
	for k := uint64(0); k < live; k++ {
		size := len(tab.slots)
		tab.Put(k, state)
		if len(tab.slots) != size {
			growths++
		}
	}
	if growths != 8 || len(tab.slots) != 8192 { // 64 → 8192 slots: 8 tables
		t.Fatalf("filling %d IDs grew the table %d times to %d slots, want 8 to 8192", live, growths, len(tab.slots))
	}
	next := uint64(live)
	churn := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			tab.Delete(next - live)
			tab.Put(next, state)
			next++
		}
	})
	if churn != 0 || tab.Len() != live {
		t.Fatalf("churn at %d live IDs allocated %v per run (Len %d)", live, churn, tab.Len())
	}
}
