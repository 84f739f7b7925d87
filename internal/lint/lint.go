// Package lint is ownsim's custom static-analysis framework. The paper's
// results are only reproducible because every simulation is a pure
// function of configuration + seed; this package turns that convention
// into a mechanical guarantee. It walks all non-test packages of the
// module, type-checks them with the standard library's go/types, and runs
// a set of Analyzers that enforce project invariants:
//
//   - determinism: no wall-clock, global math/rand, or environment reads
//     inside simulation packages
//   - panicstyle: every panic in internal/... carries a "<pkg>: ..."
//     contextual message
//   - floatcmp: no ==/!= between floating-point expressions (use the
//     tolerance helpers in internal/stats)
//   - errcheck-own: no dropped error returns from the artifact-writer
//     packages (probe, obs, report) — a dropped write error is a
//     silently truncated CSV/JSON
//
// A finding can be suppressed with a directive on the same line or the
// line immediately above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; an ignore without one is itself reported.
// TestRealTreeClean runs the suite over the repository, so `go test`
// runs it; there is no separate command.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	// Path is the full import path (e.g. "ownsim/internal/sim").
	Path string
	// RelPath is Path with the module prefix stripped (e.g.
	// "internal/sim"); analyzers match scopes against it so the same
	// rules apply to the real tree and to test fixtures.
	RelPath string
	// Name is the package name from the package clauses.
	Name string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors are the package's type-check errors as positioned
	// diagnostics (analyzer "typecheck"); a package that fails to
	// type-check is still presented to analyzers with partial Info.
	TypeErrors []Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic as "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reporter records findings for one analyzer over one package.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects one package and reports findings.
	Run func(p *Package, report Reporter)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		PanicStyleAnalyzer(),
		FloatCmpAnalyzer(),
		ErrCheckOwnAnalyzer(),
	}
}

// knownAnalyzerNames returns every name an ignore directive may target:
// the full registered suite plus the framework's own pseudo-analyzers.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{"lint": true, "typecheck": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// DeterministicPackages lists the module-relative package paths whose
// results must be a pure function of config + seed. The determinism
// analyzer restricts itself to these subtrees.
var DeterministicPackages = []string{
	"internal/sim",
	"internal/noc",
	"internal/router",
	"internal/fabric",
	"internal/traffic",
	"internal/core",
	"internal/probe",
	"internal/sbus",
	"internal/obs",
	"internal/flightrec",
	"internal/check",
	"internal/fuzznet",
}

// inScope reports whether relPath is within any of the listed
// module-relative package subtrees.
func inScope(relPath string, scopes []string) bool {
	for _, s := range scopes {
		if relPath == s || strings.HasPrefix(relPath, s+"/") {
			return true
		}
	}
	return false
}

// Run executes every analyzer over every package, applies ignore
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, p.TypeErrors...)
		ignores, malformed := collectIgnores(p)
		diags = append(diags, malformed...)
		for _, a := range analyzers {
			report := func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				if ignores.covers(a.Name, position) {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:      position,
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			a.Run(p, report)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string
	line     int
}

// ignoreSet indexes directives by filename.
type ignoreSet map[string][]ignoreDirective

// covers reports whether a directive for the analyzer sits on the
// diagnostic's line or the line immediately above it.
func (s ignoreSet) covers(analyzer string, pos token.Position) bool {
	for _, d := range s[pos.Filename] {
		if d.analyzer != analyzer {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}

const ignorePrefix = "lint:ignore"

// collectIgnores parses //lint:ignore directives from every file of the
// package. Malformed directives (no analyzer name or no reason) and
// directives naming an analyzer that is not registered (a typo'd
// suppression would otherwise silently stop suppressing anything) are
// returned as diagnostics.
func collectIgnores(p *Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	known := knownAnalyzerNames()
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				position := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      position,
						Analyzer: "lint",
						Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				if !known[fields[0]] {
					malformed = append(malformed, Diagnostic{
						Pos:      position,
						Analyzer: "lint",
						Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q (registered: see lint.All); the directive suppresses nothing", fields[0]),
					})
					continue
				}
				set[position.Filename] = append(set[position.Filename], ignoreDirective{
					analyzer: fields[0],
					line:     position.Line,
				})
			}
		}
	}
	return set, malformed
}
