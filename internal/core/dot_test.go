package core

import (
	"fmt"
	"testing"

	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/wireless"
)

// TestDOTDigests pins the Graphviz export of all ten systems, edge order
// and styling included: the run records digest only OWN-256's
// topology.dot, so a change to how builders note edges shows here first.
func TestDOTDigests(t *testing.T) {
	want := map[string]string{
		"cmesh/256":   "650fa1325f7998e1",
		"own/256":     "88fc4c48bfcc69f9",
		"optxb/256":   "674ad1ef75a21df8",
		"pclos/256":   "d19837017bf6f010",
		"wcmesh/256":  "55c5ad2d33755ac8",
		"cmesh/1024":  "730bfb4f49e7daab",
		"own/1024":    "8559d39326c27dc7",
		"optxb/1024":  "a1758395e9c8786c",
		"pclos/1024":  "b8e971587f0334f0",
		"wcmesh/1024": "b5d8b2685832abcc",
	}
	for _, cores := range []int{256, 1024} {
		for _, name := range SystemNames() {
			key := fmt.Sprintf("%s/%d", name, cores)
			n := NewSystem(name, cores, wireless.Config4, wireless.Ideal).Build(power.NewMeter(nil))
			if got := probe.DigestHex([]byte(n.DOT())); got != want[key] {
				t.Errorf("%s: DOT digest %s, want %s", key, got, want[key])
			}
		}
	}
}
