package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// hookBannedPkgs are packages an observer closure must never call into:
// wall-clock and global randomness break replayability, and os touches
// process state.
var hookBannedPkgs = map[string]bool{
	"time":         true,
	"math/rand":    true,
	"math/rand/v2": true,
	"os":           true,
}

// HookPureAnalyzer guards the observer-inertness contract: installing a
// probe, flight recorder or checker must not change simulation results
// or timing-sensitive behavior, so the closures that observe the
// simulation have to stay cheap and side-effect free. Two forms are
// checked, in every package of the deterministic scope: a function
// literal passed to (*noc.Tap).Subscribe — the one event seam — and a
// function literal assigned to an On* callback field (OnAccepted,
// OnPacket: the model outputs that keep direct calls; energy needs none,
// power.Meter reads the components' own counts). Inside such a closure
// the analyzer flags:
//
//   - calls into time, math/rand, math/rand/v2, or os
//   - allocations: the append/make/new builtins and composite literals
//     (a hook runs on the hot path of every simulated event)
//   - writes to captured state: assignments or ++/-- through selectors,
//     indexes, or dereferences whose root is not a variable declared
//     inside the closure, and assignments to captured plain variables
//
// Observers change their own state through methods (a method body is not
// the closure's); anything else carries a reasoned //lint:ignore
// hookpure. The reader functions of probe.Registry (Gauge, CounterFunc)
// and of power.Meter (ReadRouter) are not hooks: they run per sampling
// window or per report, off the event path, under the contract written on
// Registry.Gauge — a reader may settle its owner's lazily kept accounting,
// never simulated state.
func HookPureAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hookpure",
		Doc:  "keep noc.Tap subscribers and On* callbacks allocation-free, clock-free, and side-effect free",
		Run: func(p *Package, report Reporter) {
			if !inScope(p.RelPath, DeterministicPackages) {
				return
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
							return true
						}
						sel, ok := x.Lhs[0].(*ast.SelectorExpr)
						if !ok || !isHookField(sel.Sel.Name) {
							return true
						}
						if lit, ok := x.Rhs[0].(*ast.FuncLit); ok {
							checkHookBody(p, sel.Sel.Name, lit, report)
						}
					case *ast.CallExpr:
						if !isTapSubscribe(p, x) {
							return true
						}
						for _, arg := range x.Args {
							if lit, ok := arg.(*ast.FuncLit); ok {
								checkHookBody(p, "Tap.Subscribe", lit, report)
							}
						}
					}
					return true
				})
			}
		},
	}
}

// isTapSubscribe reports whether call invokes the Subscribe method of the
// Tap type declared in internal/noc.
func isTapSubscribe(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && strings.HasSuffix(fn.FullName(), "/internal/noc.Tap).Subscribe")
}

// isHookField matches the callback naming convention: On followed by a
// capitalized event name.
func isHookField(name string) bool {
	return len(name) > 2 && name[0] == 'O' && name[1] == 'n' && unicode.IsUpper(rune(name[2]))
}

// checkHookBody inspects one hook closure for impurities.
func checkHookBody(p *Package, hook string, lit *ast.FuncLit, report Reporter) {
	// Everything declared inside the closure (params included) is local;
	// writes to locals are fine, writes to anything else are captured
	// shared state.
	local := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	checkWrite := func(lhs ast.Expr) {
		switch t := unparen(lhs).(type) {
		case *ast.Ident:
			if t.Name == "_" {
				return
			}
			obj := p.Info.Uses[t]
			if obj == nil {
				obj = p.Info.Defs[t]
			}
			if obj != nil && !local[obj] {
				report(t.Pos(), "hook %s writes captured variable %s: probe hooks must not mutate shared state", hook, t.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if rootIsLocalValue(p, t, local) {
				return
			}
			report(lhs.Pos(), "hook %s writes through %s: probe hooks must not mutate shared state", hook, types.ExprString(lhs))
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch f := unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.Info.Uses[f].(*types.Builtin); ok {
					switch b.Name() {
					case "append", "make", "new":
						report(x.Pos(), "hook %s allocates via %s: probe hooks run per simulated event and must stay allocation-free", hook, b.Name())
					}
				}
			case *ast.SelectorExpr:
				if id, ok := f.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && hookBannedPkgs[pn.Imported().Path()] {
						report(x.Pos(), "hook %s calls %s.%s: probe hooks must stay pure (no clock, global RNG, or process state)", hook, pn.Imported().Path(), f.Sel.Name)
					}
				}
			}
		case *ast.CompositeLit:
			report(x.Pos(), "hook %s allocates a composite literal: probe hooks run per simulated event and must stay allocation-free", hook)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X)
		}
		return true
	})
}

// rootIsLocalValue reports whether the write target bottoms out in a
// non-pointer variable declared inside the closure: mutating a local
// value (array element, struct field of a local) cannot leak.
func rootIsLocalValue(p *Package, e ast.Expr, local map[types.Object]bool) bool {
	for {
		switch t := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			obj := p.Info.Uses[t]
			if obj == nil || !local[obj] {
				return false
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				return false
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				return false
			}
			if _, isMap := obj.Type().Underlying().(*types.Map); isMap {
				return false
			}
			return true
		default:
			return false
		}
	}
}
