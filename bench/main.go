// Command bench is the repository's benchmark: six workloads driving the
// simulator through its public functions, end-to-end metrics measured
// with tracing off, and a traced pass attributing host time to layers.
// BENCHMARK.json at the repository root declares the workloads, metrics,
// units, directions and regression bounds; README.md in this directory
// defines each of them.
//
//	bash bench/run.sh --workload own256-sat --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1                  # every workload, both passes
//	bash bench/run.sh -seed 1 -sets 2          # two result sets in alternation
//	bash bench/run.sh -compare A.json B.json   # two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its verdict as the last line; empty runs them all")
	seed := fs.Uint64("seed", 1, "workload seed; reaches the simulator only as TrafficSpec.Seed / Budget.Seed")
	seconds := fs.Float64("seconds", 10, "seconds of timed calls per workload and pass")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics (with -workload)")
	withLadder := fs.Bool("ladder", true, "measure the ladder rungs in a traced run; the full run measures them once itself and turns this off in its children")
	compare := fs.Bool("compare", false, "compare two result files given as arguments (FILE or FILE#SET) against BENCHMARK.json's bounds")
	outPath := fs.String("out", "", "result file of a full run (default bench/out/results-seed<seed>.json)")
	nsets := fs.Int("sets", 1, "result sets a full run measures, in alternation; above 1 the file holds {\"sets\": [...]}")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nsets < 1 {
		fmt.Fprintln(stderr, "bench: -sets must be at least 1")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	outDir := filepath.Join(root, "bench", "out")

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name != "":
		for _, w := range workloads() {
			if w.Name == *name {
				return runOne(w, *seed, *seconds, *trace != 0, *withLadder, outDir, stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *outPath == "" {
		*outPath = filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", *seed))
	}
	return runAll(root, *seed, *seconds, *nsets, *outPath, stdout, stderr)
}

// runOne runs one pass of one workload, prints it, and returns the exit
// code: non-zero when any check failed.
func runOne(w workload, seed uint64, seconds float64, traced, withLadder bool, outDir string, stdout, stderr io.Writer) int {
	var r *runResult
	defs := endToEnd
	if traced {
		var err error
		if r, err = runTraced(w, seed, seconds, withLadder, outDir); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defs = perLayer()
	} else {
		r = runUntraced(w, seed, seconds)
	}
	r.print(stdout, defs)
	if err := r.printVerdict(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if r.FailedOps > 0 {
		return 1
	}
	return 0
}

// environment records where a result set was measured.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is `git describe --always --dirty` of the checkout, "unknown"
	// where it is not a repository.
	Commit string `json:"commit"`
}

func readEnvironment(root string) environment {
	env := environment{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// Without root/.git, git would search the directories above the
	// checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultSet is one full run of the benchmark: the file -out writes and
// -compare reads.
type resultSet struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Rounds  int         `json:"rounds"`
	// Claim is null: the benchmark reports a baseline and claims no gain.
	Claim     *string                 `json:"claim"`
	Workloads map[string]*workloadSet `json:"workloads"`
	// Ladder holds each workload-independent ladder rung, measured once.
	Ladder map[string]metricValue `json:"ladder"`
}

// workloadSet pairs the two passes of one workload. Untraced pools the
// calls of the untraced pass's rounds.
type workloadSet struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

// rounds is how many times the full run goes through the workloads on its
// untraced pass, each time for a share of the seconds. The shared host
// drifts by 10-50 % over minutes; a workload measured in one stretch takes
// the whole drift, one measured in three stretches a minute or more apart
// has a median that one slow stretch cannot move, and the spread between
// the stretches says how far the host moved.
const rounds = 3

// runAll runs every workload, each run in a fresh child process so that
// peak_rss_mb starts clean, exactly as the driver invokes them: the
// untraced pass in rounds, then the traced pass, then the ladder. With
// nsets above one it measures that many result sets in alternation, run by
// run, so that the host's drift lands on all of them alike: the way to get
// sets of one program that -compare can hold against each other.
func runAll(root string, seed uint64, seconds float64, nsets int, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	failed := false
	child := func(w workload, args ...string) *runResult {
		args = append([]string{"-workload", w.Name, "-seed", fmt.Sprint(seed)}, args...)
		cmd := exec.Command(self, args...)
		cmd.Dir = root
		cmd.Stderr = stderr
		// A failed check exits non-zero and still prints its result.
		out, runErr := cmd.Output()
		r, err := parseDetail(out)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s %v: %v (%v)\n", w.Name, args, err, runErr)
			failed = true
			return nil
		}
		failed = failed || r.FailedOps > 0
		return r
	}

	env := readEnvironment(root)
	sets := make([]*resultSet, nsets)
	perRound := make([]map[string][]*runResult, nsets)
	for i := range sets {
		sets[i] = &resultSet{Env: env, Seed: seed, Seconds: seconds, Rounds: rounds, Workloads: map[string]*workloadSet{}}
		perRound[i] = map[string][]*runResult{}
	}
	for round := 1; round <= rounds; round++ {
		for _, w := range workloads() {
			for i := range sets {
				r := child(w, "-trace", "0", "-seconds", fmt.Sprint(seconds/rounds))
				if r == nil {
					continue
				}
				perRound[i][w.Name] = append(perRound[i][w.Name], r)
				fmt.Fprintf(stdout, "set %d round %d/%d %-20s run_s %.6g s over %d calls, %d checks, %d failed\n",
					i, round, rounds, w.Name, r.Metrics["run_s"].Value, r.Calls, r.Ops, r.FailedOps)
			}
		}
	}
	for _, w := range workloads() {
		for i, set := range sets {
			ws := &workloadSet{}
			set.Workloads[w.Name] = ws
			fmt.Fprintf(stdout, "set %d\n", i)
			if rs := perRound[i][w.Name]; len(rs) > 0 {
				ws.Untraced = pool(rs)
				ws.Untraced.print(stdout, endToEnd)
				failed = failed || ws.Untraced.FailedOps > 0
			}
			if ws.Traced = child(w, "-trace", "1", "-ladder=false", "-seconds", fmt.Sprint(seconds)); ws.Traced != nil {
				ws.Traced.print(stdout, perLayer())
			}
		}
	}
	for i, set := range sets {
		set.Ladder = map[string]metricValue{}
		fmt.Fprintf(stdout, "set %d ladder\n", i)
		vals := measureLadder()
		for _, d := range perLayer() {
			if isLadder(d.Name) {
				set.Ladder[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
				fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
			}
		}
	}

	// One set is the file itself; several are addressed as FILE#N.
	var file any = sets[0]
	if nsets > 1 {
		file = map[string]any{"sets": sets}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", outPath)
	if failed {
		fmt.Fprintln(stdout, "FAILED: at least one check failed, see above")
		return 1
	}
	return 0
}

// pool merges the untraced runs of one workload's rounds into one result
// over all their calls. The rounds share a seed, so they must share a
// fingerprint.
func pool(rs []*runResult) *runResult {
	p := &runResult{Workload: rs[0].Workload, Seed: rs[0].Seed, Fingerprint: rs[0].Fingerprint,
		Samples: map[string][]float64{}, RoundMedians: map[string][]float64{}}
	same := true
	for _, r := range rs {
		p.Calls += r.Calls
		p.Ops += r.Ops
		p.FailedOps += r.FailedOps
		p.Notes = append(p.Notes, r.Notes...)
		same = same && r.Fingerprint == p.Fingerprint
		for k, xs := range r.Samples {
			p.Samples[k] = append(p.Samples[k], xs...)
			p.RoundMedians[k] = append(p.RoundMedians[k], r.Metrics[k].Value)
		}
	}
	p.check(same, "fingerprint changed between rounds of the same seed: the simulation is not deterministic")
	p.summarize()
	return p
}

// parseDetail decodes the detail line of a child's output.
func parseDetail(out []byte) (*runResult, error) {
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			r := &runResult{}
			if err := json.Unmarshal([]byte(rest), r); err != nil {
				return nil, fmt.Errorf("detail line: %w", err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("child printed no detail line")
}
