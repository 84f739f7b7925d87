package core

import (
	"testing"

	"ownsim/internal/fabric"
	"ownsim/internal/traffic"
)

func TestFailover1024SingleGroupChannel(t *testing.T) {
	// Kill the diagonal SWMR channel group 3 -> group 1 (GroupLink 0).
	n := BuildOWN1024(Params{Cores: 1024, FailedChannels: []int{0}})
	res := n.Run(
		fabric.TrafficSpec{
			Pattern: traffic.Uniform, Rate: 0.0008, Seed: 31,
			Policy: OWNPolicy, Classify: Classify1024,
		},
		fabric.RunSpec{Warmup: 1000, Measure: 4000},
	)
	if !res.Drained {
		t.Fatal("failed to drain with one dead inter-group channel")
	}
	if res.MaxHops > 6 {
		t.Fatalf("MaxHops = %d, want <= 6", res.MaxHops)
	}
	if res.MaxHops < 5 {
		t.Fatalf("MaxHops = %d; relay path apparently unused", res.MaxHops)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailover1024NoDeadlockUnderLoad(t *testing.T) {
	n := BuildOWN1024(Params{Cores: 1024, FailedChannels: []int{0, 2}})
	res := n.Run(
		fabric.TrafficSpec{
			Pattern: traffic.Uniform, Rate: 0.01, Seed: 32,
			Policy: OWNPolicy, Classify: Classify1024,
		},
		fabric.RunSpec{Warmup: 2000, Measure: 2000, DrainBudget: 1},
	)
	if res.Packets == 0 {
		t.Fatal("no forward progress under overload with failures")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailover1024IntraChannelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for failing an intra-group channel")
		}
	}()
	BuildOWN1024(Params{Cores: 1024, FailedChannels: []int{12}})
}

func TestFailover1024IsolatedGroupPanics(t *testing.T) {
	// Group 0's outgoing channels: 0->2 (id 2), 0->1 (id 7), 0->3 (id 8).
	defer func() {
		if recover() == nil {
			t.Fatal("expected unroutable panic")
		}
	}()
	BuildOWN1024(Params{Cores: 1024, FailedChannels: []int{2, 7, 8}})
}
