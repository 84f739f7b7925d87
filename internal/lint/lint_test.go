package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtures type-checks the fixture module under testdata/src, a
// miniature mirror of the real tree with deliberately seeded violations,
// once: analyzers only read packages, so every test shares one load.
var fixtures = sync.OnceValues(func() ([]*Package, error) {
	return LoadTree(filepath.Join("testdata", "src"))
})

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := fixtures()
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	return pkgs
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// TestGoldenDiagnostics runs the full suite over the fixtures and
// compares every diagnostic against testdata/golden.txt. Regenerate
// with: go test ./internal/lint -run Golden -update
func TestGoldenDiagnostics(t *testing.T) {
	got := render(Run(loadFixtures(t), All()))
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics diverge from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// expectedViolations maps each analyzer to the fixture positions it must
// detect, as file:line anchors resolved from marker substrings.
var expectedViolations = map[string][]struct{ file, marker string }{
	"determinism": {
		{"internal/sim/determinism.go", "start := time.Now()"},
		{"internal/sim/determinism.go", "return time.Since(start)"},
		{"internal/sim/determinism.go", "rand.Intn(10)"},
		{"internal/sim/determinism.go", `os.Getenv("OWNSIM_MODE")`},
	},
	"panicstyle": {
		{"internal/fabric/panics.go", `panic(errors.New("boom"))`},
		{"internal/fabric/panics.go", `panic("router: not this package")`},
		{"internal/fabric/panics.go", `panic(fmt.Sprintf("terminal %d missing", id))`},
	},
	"floatcmp": {
		{"internal/power/floats.go", "return a == b"},
		{"internal/power/floats.go", "return x != 0"},
		{"internal/power/floats.go", "return a == b"},
	},
	"lockguard": {
		{"internal/obs/locks.go", "t.cycle * 2"},
	},
	"errcheck-own": {
		{"internal/obs/writers.go", "f.WriteString(data)"},
		{"internal/obs/writers.go", "_ = f.Close()"},
		{"cmd/tool/main.go", "obs.Dump("},
	},
}

// markerLines returns the line numbers of every occurrence of marker in
// the fixture file.
func markerLines(t *testing.T, file, marker string) []int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", filepath.FromSlash(file)))
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for i, l := range strings.Split(string(data), "\n") {
		if strings.Contains(l, marker) {
			lines = append(lines, i+1)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("marker %q not found in %s", marker, file)
	}
	return lines
}

// TestEachSeededViolationDetected runs every analyzer in isolation and
// checks it reports exactly its seeded fixture violations.
func TestEachSeededViolationDetected(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			diags := Run(pkgs, []*Analyzer{a})
			found := map[string]int{}
			for _, d := range diags {
				if d.Analyzer == "lint" {
					// Malformed-directive findings come from the
					// framework itself regardless of analyzer set.
					continue
				}
				if d.Analyzer != a.Name {
					t.Errorf("analyzer %s emitted foreign diagnostic %v", a.Name, d)
					continue
				}
				found[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]++
			}
			want := expectedViolations[a.Name]
			total := 0
			for _, v := range found {
				total += v
			}
			if total != len(want) {
				t.Errorf("%s: got %d diagnostics, want %d:\n%s", a.Name, total, len(want), render(diags))
			}
			for _, w := range want {
				hit := false
				for _, line := range markerLines(t, w.file, w.marker) {
					if found[fmt.Sprintf("%s:%d", w.file, line)] > 0 {
						hit = true
					}
				}
				if !hit {
					t.Errorf("%s: seeded violation at %s (%q) not detected:\n%s", a.Name, w.file, w.marker, render(diags))
				}
			}
		})
	}
}

// TestIgnoreDirectivesSuppress asserts that every well-formed
// //lint:ignore site in the fixtures produces no diagnostic.
func TestIgnoreDirectivesSuppress(t *testing.T) {
	diags := Run(loadFixtures(t), All())
	for _, d := range diags {
		lines := map[string]bool{}
		data, err := os.ReadFile(filepath.Join("testdata", "src", filepath.FromSlash(d.Pos.Filename)))
		if err != nil {
			t.Fatal(err)
		}
		src := strings.Split(string(data), "\n")
		for i, l := range src {
			if strings.Contains(l, "lint:ignore "+d.Analyzer+" ") {
				lines[fmt.Sprintf("%s:%d", d.Pos.Filename, i+1)] = true
				lines[fmt.Sprintf("%s:%d", d.Pos.Filename, i+2)] = true
			}
		}
		if lines[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] {
			t.Errorf("diagnostic on a reasoned lint:ignore line was not suppressed: %v", d)
		}
	}
}

// TestMalformedIgnoreReported asserts a reason-less directive is itself
// a finding and suppresses nothing.
func TestMalformedIgnoreReported(t *testing.T) {
	diags := Run(loadFixtures(t), All())
	var malformed, onNextLine bool
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "malformed") {
			malformed = true
			for _, e := range diags {
				if e.Analyzer == "floatcmp" && e.Pos.Filename == d.Pos.Filename && e.Pos.Line == d.Pos.Line+1 {
					onNextLine = true
				}
			}
		}
	}
	if !malformed {
		t.Error("reason-less lint:ignore directive was not reported")
	}
	if !onNextLine {
		t.Error("reason-less lint:ignore directive suppressed the finding it preceded")
	}
}

// TestScopeExemptions asserts the scoped analyzers stay out of cmd/:
// the fixture command calls time.Now and panics without a prefix.
// errcheck-own is the one deliberate exception — it follows
// writer-package callees out of scope so cmd/ tools cannot discard a
// writer's verdict.
func TestScopeExemptions(t *testing.T) {
	for _, d := range Run(loadFixtures(t), All()) {
		if strings.HasPrefix(d.Pos.Filename, "cmd/") && d.Analyzer != "errcheck-own" {
			t.Errorf("diagnostic in out-of-scope package: %v", d)
		}
	}
}

// TestUnknownIgnoreAnalyzerReported asserts a directive naming an
// unregistered analyzer is itself a finding: a typo'd suppression must
// not silently suppress nothing.
func TestUnknownIgnoreAnalyzerReported(t *testing.T) {
	diags := Run(loadFixtures(t), All())
	found := false
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, `unknown analyzer "floatcmps"`) {
			found = true
			if d.Pos.Filename != "internal/power/floats.go" || d.Pos.Line == 0 {
				t.Errorf("unknown-analyzer finding has wrong position: %v", d)
			}
		}
	}
	if !found {
		t.Errorf("typo'd lint:ignore directive (floatcmps) was not reported:\n%s", render(diags))
	}
}

// TestTypeErrorReported loads the deliberately broken fixture module:
// the type error must surface as a positioned "typecheck" diagnostic and
// analyzers must still run over the partial type information.
func TestTypeErrorReported(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join("testdata", "broken"))
	if err != nil {
		t.Fatalf("LoadTree on a broken package must not hard-fail: %v", err)
	}
	diags := Run(pkgs, All())
	var typecheck, floatcmp bool
	for _, d := range diags {
		if d.Analyzer == "typecheck" {
			typecheck = true
			if d.Pos.Filename != "bad.go" || d.Pos.Line == 0 {
				t.Errorf("typecheck diagnostic lacks a usable position: %v", d)
			}
		}
		if d.Analyzer == "floatcmp" {
			floatcmp = true
		}
	}
	if !typecheck {
		t.Errorf("type error was not reported:\n%s", render(diags))
	}
	if !floatcmp {
		t.Errorf("analyzers did not run over the partially typed package:\n%s", render(diags))
	}
}

// TestRealTreeClean lints the actual repository: the tree must stay free
// of findings so `go test` alone guards the invariants.
func TestRealTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadTree(root)
	if err != nil {
		t.Fatalf("LoadTree(%s): %v", root, err)
	}
	if diags := Run(pkgs, All()); len(diags) > 0 {
		t.Errorf("repository has %d lint finding(s):\n%s", len(diags), render(diags))
	}
}

func TestHasPkgPrefix(t *testing.T) {
	cases := []struct {
		msg, pkg string
		want     bool
	}{
		{"fabric: terminal 3 added twice", "fabric", true},
		{"router %d: buffer overflow", "router", true},
		{"router:", "router", true},
		{"routerx: nope", "router", false},
		{"sink 3: misrouted", "router", false},
		{"", "router", false},
		{"router", "router", false},
	}
	for _, c := range cases {
		if got := hasPkgPrefix(c.msg, c.pkg); got != c.want {
			t.Errorf("hasPkgPrefix(%q, %q) = %v, want %v", c.msg, c.pkg, got, c.want)
		}
	}
}
