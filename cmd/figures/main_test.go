package main

import "testing"

func TestKnownFig(t *testing.T) {
	for _, tc := range []struct {
		fig  string
		want bool
	}{
		{"3", true}, {"4", true}, {"5", true}, {"6", true}, {"7a", true}, {"7bc", true}, {"8", true}, {"all", true},
		{"9", false}, {"7b", false}, {"7c", false}, {"7", false}, {"", false}, {"ALL", false}, {"|", false}, {"5|6", false},
	} {
		if got := knownFig(tc.fig); got != tc.want {
			t.Errorf("knownFig(%q) = %v, want %v", tc.fig, got, tc.want)
		}
	}
	keys := ""
	for _, f := range figs {
		keys += f.key + "|"
	}
	if keys+"all" != figKeys {
		t.Errorf("figs has keys %sall, -fig accepts %s", keys, figKeys)
	}
}
