// Observer fixture for the hookpure analyzer: closures subscribed to a
// noc.Tap, and closures assigned to the On* callbacks that remain, must
// stay pure.
package fabric

import (
	"time"

	"ownsim/internal/noc"
)

type probePoint struct {
	OnAccepted func(id int)
	OnPacket   func(id int)
	OnFlit     func()
}

type dropStats struct {
	count int
}

func (s *dropStats) add(n int) { s.count += n }

// bus has a Subscribe method too, but is not the event seam.
type bus struct{}

func (bus) Subscribe(mask uint32, fn func(noc.Event)) {}

func installImpure(p *probePoint, tap *noc.Tap, s *dropStats) {
	p.OnAccepted = func(id int) {
		seen := make([]int, 0, 4) // seeded: allocation on the event hot path
		_ = seen
	}
	p.OnPacket = func(id int) {
		s.count++ // seeded: mutation of captured shared state
	}
	p.OnFlit = func() {
		_ = time.Now() // seeded: clock read (hookpure and determinism)
	}
	tap.Subscribe(1, func(e noc.Event) {
		s.count += e.A // seeded: subscriber mutates captured state directly
	})
	tap.Subscribe(1, func(e noc.Event) {
		ops := []int{e.A, e.B} // seeded: slice literal allocates per event
		_ = ops
	})
}

func installPure(p *probePoint, tap *noc.Tap, s *dropStats) {
	p.OnAccepted = func(id int) {
		n := id * 2 // locals are fine: must not be flagged
		_ = n
	}
	p.OnPacket = func(id int) {
		//lint:ignore hookpure fixture: counter drained single-threaded after the run
		s.count++
	}
	tap.Subscribe(1, func(e noc.Event) {
		// Own state through a method: no allocation and no write to
		// captured state in this closure.
		s.add(e.A)
	})
	bus{}.Subscribe(1, func(e noc.Event) {
		s.count++ // not a noc.Tap: out of the analyzer's reach
	})
}

var _ = installImpure
var _ = installPure
