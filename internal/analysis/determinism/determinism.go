// Package determinism guards the PRs-3–5 contract that derivation output
// is byte-deterministic at any worker count: streamed rows diff cleanly
// against buffered responses, replicas answer byte-identically to local
// fallback, and the whole cluster layer keys its cache on exact bit
// patterns. The kernel packages (internal/mat, switching, lti, sim, pwl)
// therefore must not introduce iteration-order, wall-clock or scheduler
// dependence. Three rules:
//
//  1. No range over a map whose body feeds an ordered output or an
//     accumulator: append to any slice, indexed writes into an outer
//     slice/array, compound assignment to an outer variable, last-writer-
//     wins plain assignment to an outer variable, or float ++/-- — map
//     iteration order is randomised, so such loops produce run-dependent
//     bytes. Writes keyed by the range key into another map and integer
//     counting (n++) are order-free and allowed.
//
//  2. No time.Now and no unseeded global math/rand (rand.Int, rand.Float64,
//     rand.Shuffle, ...): wall-clock and process-global random state make
//     equal inputs produce unequal artefacts. Explicitly seeded generators
//     (rand.New(rand.NewSource(seed))) are fine.
//
//  3. No goroutine fan-in without an index: `go func() { ch <- ... }()`
//     with a parameterless literal delivers results in scheduler order.
//     Give the worker its index (`go func(i int) { ... }(i)`) so the
//     receiver can restore input order — the conc package's pattern.
//
// No function is exempt: a body whose writes are order-free in a way the
// AST cannot see iterates sorted keys like any other.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"cpsdyn/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "kernel packages must stay byte-deterministic: no ordered writes under map ranges, no wall-clock or global rand, no unindexed goroutine fan-in",
	Run:  run,
}

// seededConstructors are the math/rand functions that build explicitly
// seeded generators rather than consulting process-global state.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRange(pass, n)
					}
				}
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				checkGo(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags ordered writes inside a map-iteration body.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	outer := func(id *ast.Ident) bool {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil || obj.Pos() == token.NoPos {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					pass.Reportf(n.Pos(),
						"append under a map range produces iteration-order-dependent output; iterate sorted keys or collect into a map")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// x = append(x, ...) is already reported by the append rule.
				if i < len(n.Rhs) && isAppend(pass.TypesInfo, n.Rhs[i]) {
					continue
				}
				lv := ast.Unparen(lhs)
				if idx, ok := lv.(*ast.IndexExpr); ok {
					// Writes keyed into a map are order-free; indexed writes
					// into slices/arrays order the output by map iteration.
					if t := pass.TypesInfo.TypeOf(idx.X); t != nil {
						switch t.Underlying().(type) {
						case *types.Slice, *types.Array, *types.Pointer:
							if root := rootIdent(idx.X); root != nil && outer(root) {
								pass.Reportf(lhs.Pos(),
									"indexed write into %s under a map range orders output by map iteration; key the write by the range key or sort first", root.Name)
							}
						}
					}
					continue
				}
				if n.Tok == token.DEFINE {
					continue
				}
				root := rootIdent(lv)
				if root == nil || !outer(root) {
					continue
				}
				if n.Tok == token.ASSIGN {
					pass.Reportf(lhs.Pos(),
						"last-writer-wins assignment to %s under a map range depends on iteration order; iterate sorted keys", root.Name)
				} else {
					// Compound assignment (+=, -=, ...): floating-point
					// accumulation order changes the bits.
					pass.Reportf(lhs.Pos(),
						"accumulation into %s under a map range is iteration-order-dependent; iterate sorted keys", root.Name)
				}
			}
		case *ast.IncDecStmt:
			// ++/-- on integers is order-free; only flag floats, where
			// rounding makes even increments order-sensitive in general
			// expressions. Integers counting map entries are a common
			// legitimate pattern.
			if root := rootIdent(n.X); root != nil && outer(root) {
				if t := pass.TypesInfo.TypeOf(n.X); t != nil && isFloat(t) {
					pass.Reportf(n.Pos(),
						"float accumulation into %s under a map range is iteration-order-dependent", root.Name)
				}
			}
		}
		return true
	})
}

// checkCall flags time.Now and unseeded global math/rand use.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in a kernel package makes equal inputs produce unequal artefacts; take the clock as an input or move it out of the kernel")
		}
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() == nil && !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"unseeded global %s.%s is process-random; construct a seeded generator (rand.New(rand.NewSource(seed)))",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkGo flags parameterless goroutine literals that send on a channel:
// fan-in with no index loses input order.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok || len(lit.Type.Params.List) > 0 {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			pass.Reportf(send.Pos(),
				"goroutine fan-in without an index: the literal takes no parameters, so results arrive in scheduler order; pass the worker its index")
			return false
		}
		return true
	})
}

// isAppend reports whether e is a call to the append builtin.
func isAppend(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootIdent returns the leftmost identifier of an lvalue expression
// (x, x.f, x[i], *x, ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
