package noc

import (
	"strconv"
	"testing"
	"unsafe"
)

// A FlitFIFO keeps FIFO order over interleaved pushes and pops, holds a
// lone flit as a circle of one, and hands popped flits back unlinked.
func TestFlitFIFOOrder(t *testing.T) {
	var q FlitFIFO
	fs := make([]Flit, 8)
	for i := range fs {
		fs[i].Seq = i
	}
	if !q.Empty() {
		t.Fatal("zero FlitFIFO is not empty")
	}
	q.Push(&fs[0])
	if q.Front() != &fs[0] || fs[0].link != &fs[0] {
		t.Fatal("a lone flit is not a circle of one")
	}
	// Push two, pop one, repeated: the pops must come out 0, 1, 2, ...
	next, popped := 1, 0
	for next < len(fs) {
		for k := 0; k < 2 && next < len(fs); k++ {
			q.Push(&fs[next])
			next++
		}
		if f := q.Pop(); f.Seq != popped || f.link != nil {
			t.Fatalf("pop %d: got flit %d, link %p", popped, f.Seq, f.link)
		}
		popped++
	}
	n := 0
	q.Walk(func(f *Flit) bool {
		if f.Seq != popped+n {
			t.Fatalf("walk step %d: flit %d, want %d", n, f.Seq, popped+n)
		}
		n++
		return true
	})
	if n != len(fs)-popped {
		t.Fatalf("walk saw %d flits, want %d", n, len(fs)-popped)
	}
	for ; popped < len(fs); popped++ {
		if f := q.Pop(); f.Seq != popped || f.link != nil {
			t.Fatalf("pop %d: got flit %d, link %p", popped, f.Seq, f.link)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after popping every flit")
	}
}

// Type sits beside gen, so the FIFO link takes the word their padding
// freed: a flit stays five words on a 64-bit host (six on a 32-bit one).
func TestFlitSize(t *testing.T) {
	want := map[int]uintptr{32: 24, 64: 40}[strconv.IntSize]
	if got := unsafe.Sizeof(Flit{}); got != want {
		t.Fatalf("Flit is %d bytes on a %d-bit host, want %d", got, strconv.IntSize, want)
	}
}
