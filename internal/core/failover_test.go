package core

import (
	"strings"
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

func TestFailoverSingleChannel(t *testing.T) {
	// Kill channel 0 (A3 -> B1, cluster 3 to cluster 1). Traffic must
	// detour over a relay with at most 6 router hops and still drain.
	n := BuildOWN256(Params{FailedChannels: []int{0}})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.003, Seed: 21, Policy: OWNPolicy},
		fabric.RunSpec{Warmup: 1000, Measure: 5000},
	)
	if !res.Drained {
		t.Fatal("failed to drain with one dead channel")
	}
	if res.MaxHops > 6 {
		t.Fatalf("MaxHops = %d, want <= 6 (relay path)", res.MaxHops)
	}
	// Some packets must actually take the longer path.
	if res.MaxHops < 5 {
		t.Fatalf("MaxHops = %d; no packet seems to have been relayed", res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedChannelLeavesFigure5Average: the Figure 5 metric is the mean
// over the wireless channels in service. The accumulator meter divided by
// the highest transmitting channel id plus one, so a channel taken out by
// -fail still counted (here: 12 instead of 11) whenever a higher id carried
// a flit. With every channel in service the two denominators agree, which
// is why Figure 5, the goldens and results/ did not move.
func TestFailedChannelLeavesFigure5Average(t *testing.T) {
	m := power.NewMeter(nil)
	n := BuildOWN256(Params{FailedChannels: []int{0}, Meter: m})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.003, Seed: 21, Policy: OWNPolicy},
		fabric.RunSpec{Warmup: 500, Measure: 2500},
	)
	inService := 0
	var tx power.Picojoules
	m.EachWirelessChannel(func(id int, _ string, pj power.Picojoules) {
		if id == 0 || pj == 0 {
			t.Fatalf("channel %d priced at %v pJ: the failed channel must be absent, every other one busy", id, pj)
		}
		inService++
		tx += pj
	})
	if inService != 11 {
		t.Fatalf("%d wireless channels registered, want 11", inService)
	}
	txMW := float64(tx.OverNS(power.Nanoseconds(float64(res.Power.Cycles) * m.P.CycleNS())))
	if got := res.AvgWirelessChannelMW; !relClose(got, txMW/11) {
		t.Fatalf("AvgWirelessChannelMW = %v, want %v mW over 11 channels (over 12 it would be %v)", got, txMW/11, txMW/12)
	}
	full := NewSystem("own", 256, wireless.Config4, wireless.Ideal).Build(power.NewMeter(nil))
	all := 0
	full.Meter.EachWirelessChannel(func(int, string, power.Picojoules) { all++ })
	if all != 12 {
		t.Fatalf("plain OWN-256 registers %d wireless channels, want all 12 of Table I", all)
	}
}

func TestFailoverAllDiagonals(t *testing.T) {
	// All four C2C channels dead: every diagonal flow relays through an
	// edge/short-range two-hop path.
	n := BuildOWN256(Params{FailedChannels: []int{0, 1, 2, 3}})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.002, Seed: 22, Policy: OWNPolicy},
		fabric.RunSpec{Warmup: 1000, Measure: 5000},
	)
	if !res.Drained {
		t.Fatal("failed to drain with all diagonals dead")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverNoDeadlockUnderLoad(t *testing.T) {
	// Push a degraded network past its reduced capacity: forward
	// progress must continue (the descending VC-rank discipline keeps
	// the relay path acyclic).
	n := BuildOWN256(Params{FailedChannels: []int{0, 1}})
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.02, Seed: 23, Policy: OWNPolicy},
		fabric.RunSpec{Warmup: 3000, Measure: 3000, DrainBudget: 1},
	)
	if res.Packets == 0 {
		t.Fatal("no forward progress: relay deadlock suspected")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverDegradesCapacityGracefully(t *testing.T) {
	run := func(failed []int) float64 {
		n := BuildOWN256(Params{FailedChannels: failed})
		res := n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.006, Seed: 24, Policy: OWNPolicy},
			fabric.RunSpec{Warmup: 1000, Measure: 5000},
		)
		return res.Throughput
	}
	healthy := run(nil)
	degraded := run([]int{0, 2}) // one diagonal per direction pair
	if degraded > healthy*1.02 {
		t.Fatalf("dead channels cannot raise throughput: %v vs %v", degraded, healthy)
	}
	if degraded < healthy*0.4 {
		t.Fatalf("relaying should retain most capacity: %v vs %v", degraded, healthy)
	}
}

func TestFailoverInvalidChannelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildOWN256(Params{FailedChannels: []int{99}})
}

func TestFailoverIsolatedClusterPanics(t *testing.T) {
	// Killing every channel out of cluster 0 (0->1 is 7, 0->2 is 2,
	// 0->3 is 8) leaves no relay: the build must refuse.
	var ids []int
	for _, l := range wireless.OWN256Links() {
		if l.SrcCluster == 0 {
			ids = append(ids, l.ID)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected unroutable panic")
		}
	}()
	BuildOWN256(Params{FailedChannels: ids})
}

func TestFailoverTables(t *testing.T) {
	failed, relay, err := failoverTables([]int{0}) // 3 -> 1
	if err != nil || !failed[3][1] || failed[1][3] {
		t.Fatal("failure matrix wrong")
	}
	r := relay[3][1]
	if r == 3 || r == 1 {
		t.Fatalf("relay %d must be a third cluster", r)
	}
	// Both legs of the relay path are alive.
	if failed[3][r] || failed[r][1] {
		t.Fatal("relay path uses a dead channel")
	}
}

// TestCheckFailedChannels pins what `ownsim -fail` accepts: the sets
// BuildOWN256 would panic on are one-line errors before anything is built.
func TestCheckFailedChannels(t *testing.T) {
	for _, tc := range []struct {
		what string
		ids  []int
		want string // substring of the error; "" = accepted
	}{
		{"out of range", []int{99}, "invalid failed channel id 99"},
		{"negative", []int{-1}, "invalid failed channel id -1"},
		{"repeated", []int{3, 5, 3}, "failed channel id 3 listed twice"},
		{"isolating: every channel", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, "no live relay for failed channel 0->1"},
		{"isolating: all out of cluster 0", []int{7, 2, 8}, "no live relay for failed channel 0->"},
		{"none", nil, ""},
		{"one", []int{0}, ""},
		{"one diagonal per direction pair", []int{0, 2}, ""},
	} {
		err := CheckFailedChannels(tc.ids)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: CheckFailedChannels(%v) = %v, want nil", tc.what, tc.ids, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: CheckFailedChannels(%v) = %v, want an error containing %q", tc.what, tc.ids, err, tc.want)
		}
	}
}
