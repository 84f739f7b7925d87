package core

import (
	"fmt"
	"slices"
	"strings"

	"ownsim/internal/check"
	"ownsim/internal/fabric"
	"ownsim/internal/power"
	"ownsim/internal/router"
	"ownsim/internal/topology"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// System is one simulatable architecture: a builder plus the injection
// policy and traffic classifier its routing discipline needs.
type System struct {
	// Name is the registry key ("own", "cmesh", "wcmesh", "optxb",
	// "pclos").
	Name string
	// Cores is the terminal count.
	Cores int
	// Build constructs a fresh network priced by the given meter.
	Build func(m *power.Meter) *fabric.Network
	// Policy is the injection VC policy (nil = all VCs).
	Policy router.VCPolicy
	// Classify assigns traffic classes (nil = class 0).
	Classify traffic.Classifier
}

// SystemNames lists the evaluated architectures in the paper's
// presentation order.
func SystemNames() []string {
	return []string{"cmesh", "own", "optxb", "pclos", "wcmesh"}
}

// CheckSystem reports whether NewSystem can build the named architecture
// at the given scale. The CLIs call it on user input, so a typo is one
// error line; NewSystem keeps its panic as the engine invariant.
func CheckSystem(name string, cores int) error {
	if !slices.Contains(SystemNames(), name) {
		return fmt.Errorf("unknown topology %q (want %s)", name, strings.Join(SystemNames(), "|"))
	}
	if cores != 256 && cores != 1024 {
		return fmt.Errorf("cores must be 256 or 1024, got %d", cores)
	}
	return nil
}

// CheckRun reports whether a run's methodology can be simulated: a
// measurement window of at least one cycle that ends (warmup + measure)
// within uint64 cycles, and an offered load in (0, 1] flits/node/cycle,
// since a terminal injects at most one flit per cycle (a sweep passes its
// lowest). The CLIs call it on user input before anything is built;
// stats.NewCollector and traffic.NewBernoulli keep their panics as the
// engine invariants.
func CheckRun(warmup, measure uint64, load float64) error {
	if measure < 1 {
		return fmt.Errorf("measure must be >= 1 cycle, got %d", measure)
	}
	if warmup+measure < warmup {
		return fmt.Errorf("warmup %d + measure %d overflows the 64-bit cycle count", warmup, measure)
	}
	if !(load > 0 && load <= 1) {
		return fmt.Errorf("load must be in (0, 1] flits/node/cycle (a terminal injects at most one flit per cycle), got %v", load)
	}
	return nil
}

// NewSystem returns the named architecture at the given scale. OWN takes
// the Table IV configuration and Table III scenario; the baselines ignore
// them except wireless-CMESH, whose channel bandwidth follows the
// scenario.
func NewSystem(name string, cores int, cfg wireless.Config, scen wireless.Scenario) System {
	tp := topology.Params{Cores: cores}
	if scen == wireless.Conservative {
		tp.WirelessBWGbps = 16
	}
	switch name {
	case "own":
		s := System{Name: name, Cores: cores, Policy: OWNPolicy}
		if cores == 256 {
			s.Build = func(m *power.Meter) *fabric.Network {
				return BuildOWN256(Params{Cores: cores, Config: cfg, Scenario: scen, Meter: m})
			}
		} else {
			s.Build = func(m *power.Meter) *fabric.Network {
				return BuildOWN1024(Params{Cores: cores, Config: cfg, Scenario: scen, Meter: m})
			}
			s.Classify = Classify1024
		}
		return s
	case "cmesh":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildCMesh(p)
		}}
	case "wcmesh":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildWCMesh(p)
		}}
	case "optxb":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildOptXB(p)
		}}
	case "pclos":
		return System{Name: name, Cores: cores, Build: func(m *power.Meter) *fabric.Network {
			p := tp
			p.Meter = m
			return topology.BuildPClos(p)
		}}
	}
	panic(fmt.Sprintf("core: unknown system %q", name))
}

// Run builds a fresh instance of the system and executes one measured
// simulation on it: the fresh-build reference the reusing paths (sweep,
// Evaluation) are checked against.
func (s System) Run(ts fabric.TrafficSpec, rs fabric.RunSpec) fabric.Result {
	var n *fabric.Network
	return s.run(&n, ts, rs)
}

// run is the one place core turns a point into a Result: it executes one
// measured simulation of s on *n, building *n first if it is nil. A
// network that has run is rewound by Network.Run, so a later point reads
// what a fresh build reads.
func (s System) run(n **fabric.Network, ts fabric.TrafficSpec, rs fabric.RunSpec) fabric.Result {
	if *n == nil {
		*n = s.Build(power.NewMeter(nil))
	}
	ts.Policy, ts.Classify = s.Policy, s.Classify
	return (*n).Run(ts, rs)
}

// RunChecked is Run with the conformance checker (internal/check)
// installed: every protocol invariant is audited while the simulation
// runs, and a final structural audit (Network.Audit) closes the run. It
// returns the result — bit-identical to Run's, the checker is inert —
// together with the recorded violations (empty for a conformant run). The CLIs' -check campaign mode is built on it. A checked network
// cannot run again, so every call builds one.
func (s System) RunChecked(ts fabric.TrafficSpec, rs fabric.RunSpec) (fabric.Result, []check.Violation) {
	n := s.Build(power.NewMeter(nil))
	c := check.New()
	n.InstallChecker(c, nil)
	res := s.run(&n, ts, rs)
	n.Audit()
	return res, c.Violations()
}
