package core

import (
	"flag"
	"io"
	"slices"
	"testing"

	"ownsim/internal/traffic"
)

// TestRunFlags pins the one declaration of the run flags: the defaults both
// CLIs had, -topo all only where it is the default, and each bad value an
// error from Validate.
func TestRunFlags(t *testing.T) {
	parse := func(topoDefault string, args ...string) *RunFlags {
		var rf RunFlags
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		rf.Register(fs, topoDefault)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return &rf
	}
	rf := parse("own")
	if want := (RunFlags{Topo: "own", Cores: 256, Pattern: "uniform", Warmup: 3000, Measure: 12000, Seed: 1}); *rf != want {
		t.Errorf("ownsim defaults %+v, want %+v", *rf, want)
	}
	if pat, names, err := rf.Validate(0.004); err != nil || pat != traffic.Uniform || !slices.Equal(names, []string{"own"}) {
		t.Errorf("ownsim defaults validate to %v, %v, %v", pat, names, err)
	}
	pat, names, err := parse("all", "-pattern", "transpose", "-cores", "1024").Validate(SweepLoads(1024, 2)[0])
	if err != nil || pat != traffic.Transpose || !slices.Equal(names, SystemNames()) {
		t.Errorf("sweep -pattern transpose -cores 1024 validates to %v, %v, %v", pat, names, err)
	}
	for _, tc := range []struct {
		topoDefault string
		args        []string
		load        float64
	}{
		{"own", []string{"-topo", "all"}, 0.004},
		{"own", []string{"-topo", "mesh"}, 0.004},
		{"all", []string{"-topo", "mesh"}, 0.004},
		{"own", []string{"-pattern", "nope"}, 0.004},
		{"all", []string{"-cores", "300"}, 0.004},
		{"all", []string{"-measure", "0"}, 0.004},
		{"own", nil, 0},
	} {
		if _, _, err := parse(tc.topoDefault, tc.args...).Validate(tc.load); err == nil {
			t.Errorf("default %s, args %v, load %v: accepted, want an error", tc.topoDefault, tc.args, tc.load)
		}
	}
}
