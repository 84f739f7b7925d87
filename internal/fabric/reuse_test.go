package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ownsim/internal/check"
	"ownsim/internal/flightrec"
	"ownsim/internal/noc"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/traffic"
)

// Observers keep state of the run they watched — sampler rows, spans, the
// recorder ring, the checker's ledgers — that nothing rewinds, so a second
// run on an observed network is refused instead of appending to them; Run
// and RunTrace alike, whichever came first, whichever observer.
func TestReuseOfAnObservedNetworkIsRefused(t *testing.T) {
	ts := TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 1}
	rs := RunSpec{Warmup: 50, Measure: 200}
	tr := &traffic.Trace{Entries: []traffic.TraceEntry{{Cycle: 3, Src: 0, Dst: 2}}}
	for _, install := range []func(*Network){
		func(n *Network) { n.InstallProbe(probe.New(probe.Options{MetricsEvery: 10})) },
		func(n *Network) { n.InstallFlightRecorder(flightrec.New(flightrec.Options{})) },
		func(n *Network) { n.InstallChecker(check.New(), nil) },
	} {
		for _, again := range []func(*Network){
			func(n *Network) { n.Run(ts, rs) },
			func(n *Network) { n.RunTrace(tr, 3, TrafficSpec{}, 500) },
		} {
			n := ring(4, power.NewMeter(nil))
			install(n)
			n.Run(ts, rs)
			func() {
				defer func() {
					const want = "fabric ring: cannot run again: an observed network cannot be reset"
					if msg := fmt.Sprint(recover()); msg != want {
						t.Errorf("second run panicked with %q, want %q", msg, want)
					}
				}()
				again(n)
			}()
		}
	}
}

// RunTrace rewinds like Run: a trace replayed after a cut-off synthetic
// run reads what it reads on a fresh network.
func TestReuseRunTraceAfterRun(t *testing.T) {
	tr := &traffic.Trace{}
	for round := uint64(0); round < 4; round++ {
		for src := 0; src < 16; src++ {
			tr.Entries = append(tr.Entries, traffic.TraceEntry{Cycle: 60 * round, Src: src, Dst: (src + 5) % 16})
		}
	}
	replay := func(n *Network) (Result, uint64) {
		res := n.RunTrace(tr, 3, TrafficSpec{}, 5000)
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return res, n.Eng.Cycle()
	}
	used := ring(16, power.NewMeter(nil))
	if res := used.Run(TrafficSpec{Pattern: traffic.Uniform, Rate: 0.4, PktFlits: 3, Seed: 2}, RunSpec{Warmup: 50, Measure: 200, DrainBudget: 1}); res.Drained {
		t.Fatal("the first run drained: nothing is left to rewind")
	}
	got, gotCy := replay(used)
	want, wantCy := replay(ring(16, power.NewMeter(nil)))
	if got != want || gotCy != wantCy || !want.Drained || want.Packets == 0 {
		t.Fatalf("replay on a used network:\n got  %+v drained %v %+v after %d cycles\n want %+v drained %v %+v after %d cycles",
			got, got.Drained, got.Power, gotCy, want, want.Drained, want.Power, wantCy)
	}
}

// Run starts no goroutine: the count during a run, after it and after one
// that panics on an engine invariant (an empty VC policy mask) halfway
// through is the count before it.
func TestRunLeavesNoGoroutineBehind(t *testing.T) {
	// runners counts the goroutines of tests, this one's or an earlier
	// one's: a goroutine leaves the count a moment after it has said it is
	// done.
	runners := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by testing.(*T).Run")
	}
	for i := 0; i < 1000 && runners() > 1; i++ {
		time.Sleep(time.Millisecond)
	}
	before := runtime.NumGoroutine()
	n := ring(4, power.NewMeter(nil))
	during := 0
	n.Sinks[0].Tap.Subscribe(noc.Mask(noc.EvEject), func(noc.Event) { during = runtime.NumGoroutine() })
	ts := TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 3, Seed: 1}
	if res := n.Run(ts, RunSpec{Warmup: 200, Measure: 3000}); !res.Drained || during != before {
		t.Fatalf("drained %v with %d goroutines during the run, want the %d before it", res.Drained, during, before)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after a run, %d before", after, before)
	}

	ts.Policy = func(p *noc.Packet) uint32 {
		if p.ID&0xff == 40 { // the 40th packet of a source
			return 0
		}
		return 3
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "empty VC policy mask") {
				t.Fatalf("run panicked with %q, want the empty-mask invariant", msg)
			}
		}()
		n.Run(ts, RunSpec{Warmup: 200, Measure: 3000})
	}()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after a run that panicked, %d before", after, before)
	}
}

// A network that has run can keep stepping: its sources keep generating
// from where the run left them, and every invariant holds.
func TestSteppingAfterRun(t *testing.T) {
	n := ring(16, power.NewMeter(nil))
	n.Run(TrafficSpec{Pattern: traffic.Uniform, Rate: 0.2, PktFlits: 3, Seed: 4}, RunSpec{Warmup: 100, Measure: 500})
	generated := func() (sum uint64) {
		for _, src := range n.Sources {
			sum += src.Generated
		}
		return sum
	}
	before := generated()
	n.Eng.Run(256)
	if generated() == before {
		t.Fatal("no source generated a packet in the 256 cycles after the run")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
