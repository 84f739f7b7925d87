package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// writerPackages are the artifact-writer subtrees: a dropped error there
// means a silently truncated CSV/JSON/SVG on disk — the artifact looks
// complete and quietly isn't, which is worse than a crash for a
// reproduction repo.
var writerPackages = []string{
	"internal/probe",
	"internal/obs",
	"internal/plot",
	"internal/report",
}

// ErrCheckOwnAnalyzer flags dropped error returns around the artifact
// writers. A call's error is "dropped" when the call stands alone as a
// statement or every assignment target is blank. The check applies when
// either side of the call touches a writer package: the caller lives in
// one (so even stdlib errors like File.Close matter there), or the
// callee is defined in one (so cmd/ tools cannot discard a writer's
// verdict).
//
// Infallible sinks are exempt: fmt.Fprint* into a strings.Builder or
// bytes.Buffer, and the Builder/Buffer Write* methods themselves — their
// error results are documented to always be nil. Deferred calls are also
// skipped (defer f.Close() on a read path is idiomatic); a deliberate
// drop anywhere else needs a reasoned //lint:ignore errcheck-own.
func ErrCheckOwnAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errcheck-own",
		Doc:  "forbid dropped error returns from the artifact-writer packages (probe, obs, plot, report)",
		Run: func(p *Package, report Reporter) {
			callerInWriter := inScope(p.RelPath, writerPackages)
			module := p.Path
			if p.RelPath != "" {
				module = strings.TrimSuffix(p.Path, "/"+p.RelPath)
			}
			check := func(call *ast.CallExpr, blanked bool) {
				if !dropsError(p, call) {
					return
				}
				obj := calleeObject(p, call)
				if exemptSink(p, call, obj) {
					return
				}
				relevant := callerInWriter
				if !relevant && obj != nil && obj.Pkg() != nil {
					if rel, ok := strings.CutPrefix(obj.Pkg().Path(), module+"/"); ok {
						relevant = inScope(rel, writerPackages)
					}
				}
				if !relevant {
					return
				}
				how := "discarded by a statement call"
				if blanked {
					how = "assigned to _"
				}
				report(call.Pos(), "error return of %s %s: artifact writers must propagate or log write errors (or carry a reasoned //lint:ignore errcheck-own)", types.ExprString(call.Fun), how)
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.ExprStmt:
						if call, ok := st.X.(*ast.CallExpr); ok {
							check(call, false)
						}
					case *ast.AssignStmt:
						if len(st.Rhs) == 1 && allBlank(st.Lhs) {
							if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
								check(call, true)
							}
						}
					}
					return true
				})
			}
		},
	}
}

// dropsError reports whether the call returns an error that the
// surrounding statement cannot be observing.
func dropsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Results() == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeObject resolves the called function's object when the callee is
// a plain identifier or selector.
func calleeObject(p *Package, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[f]
	case *ast.SelectorExpr:
		return p.Info.Uses[f.Sel]
	}
	return nil
}

// exemptSink reports whether the call writes into an infallible
// in-memory sink: strings.Builder and bytes.Buffer never return a
// non-nil error.
func exemptSink(p *Package, call *ast.CallExpr, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && isInfallibleBuffer(recv.Type()) {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		if atv, ok := p.Info.Types[call.Args[0]]; ok && isInfallibleBuffer(atv.Type) {
			return true
		}
	}
	return false
}

// isInfallibleBuffer matches strings.Builder and bytes.Buffer, possibly
// behind a pointer.
func isInfallibleBuffer(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}
