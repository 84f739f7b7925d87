package core

import (
	"flag"
	"io"
	"slices"
	"testing"

	"ownsim/internal/power"
	"ownsim/internal/stats"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
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
		{"own", []string{"-warmup", "18446744073709551615", "-measure", "1"}, 0.004},
		{"own", nil, 0},
	} {
		if _, _, err := parse(tc.topoDefault, tc.args...).Validate(tc.load); err == nil {
			t.Errorf("default %s, args %v, load %v: accepted, want an error", tc.topoDefault, tc.args, tc.load)
		}
	}
}

// FuzzRunFlags: whatever -topo, -cores, -pattern, -warmup, -measure and
// -seed a command line gives ownsim (sweep is true: cmd/sweep), a value
// set that RunFlags.Validate accepts builds every named architecture and
// a runnable measurement window. The corpus under
// testdata/fuzz/FuzzRunFlags holds the overflowing window end
// (-warmup 2^64-1 -measure 1) that once reached stats.NewCollector.
func FuzzRunFlags(f *testing.F) {
	f.Fuzz(func(t *testing.T, sweep bool, topo, cores, pattern, warmup, measure, seed string) {
		var rf RunFlags
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		topoDefault := "own"
		if sweep {
			topoDefault = "all"
		}
		rf.Register(fs, topoDefault)
		args := []string{"-topo", topo, "-cores", cores, "-pattern", pattern, "-warmup", warmup, "-measure", measure, "-seed", seed}
		if fs.Parse(args) != nil {
			return
		}
		_, names, err := rf.Validate(0.004)
		if err != nil {
			return
		}
		for _, name := range names {
			NewSystem(name, rf.Cores, wireless.Config4, wireless.Ideal).Build(power.NewMeter(nil))
		}
		// It panics on a window a run cannot measure.
		stats.NewCollector(rf.Cores, rf.Warmup, rf.Warmup+rf.Measure)
	})
}
