package core

import (
	"flag"
	"strings"

	"ownsim/internal/traffic"
)

// RunFlags is the run methodology cmd/ownsim and cmd/sweep share: which
// architecture at which scale, under which traffic, for how long, from
// which seed.
type RunFlags struct {
	Topo    string
	Cores   int
	Pattern string
	Warmup  uint64
	Measure uint64
	Seed    uint64

	// all is set when -topo defaults to "all" (cmd/sweep): only then is
	// "all" a topology.
	all bool
}

// Register declares the six flags on fs. topoDefault is "all" for a
// command that can run every architecture, else an architecture's name.
func (f *RunFlags) Register(fs *flag.FlagSet, topoDefault string) {
	f.all = topoDefault == "all"
	topos := strings.Join(SystemNames(), "|")
	if f.all {
		topos = "all|" + topos
	}
	fs.StringVar(&f.Topo, "topo", topoDefault, "topology: "+topos)
	fs.IntVar(&f.Cores, "cores", 256, "core count: 256 or 1024")
	fs.StringVar(&f.Pattern, "pattern", "uniform", "traffic: uniform|bitreversal|transpose|shuffle|neighbor|hotspot")
	fs.Uint64Var(&f.Warmup, "warmup", 3000, "warmup cycles")
	fs.Uint64Var(&f.Measure, "measure", 12000, "measurement cycles")
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
}

// Validate parses the pattern and checks that every named architecture can
// be built at the scale (CheckSystem) and that the methodology can be
// simulated at lowestLoad (CheckRun; a sweep passes its first point). It
// returns the pattern and the architectures to run: -topo all is
// SystemNames.
func (f *RunFlags) Validate(lowestLoad float64) (traffic.Pattern, []string, error) {
	pat, err := traffic.ParsePattern(f.Pattern)
	if err != nil {
		return 0, nil, err
	}
	names := []string{f.Topo}
	if f.all && f.Topo == "all" {
		names = SystemNames()
	}
	for _, name := range names {
		if err := CheckSystem(name, f.Cores); err != nil {
			return 0, nil, err
		}
	}
	return pat, names, CheckRun(f.Warmup, f.Measure, lowestLoad)
}
