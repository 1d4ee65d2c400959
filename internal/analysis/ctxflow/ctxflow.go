// Package ctxflow enforces the PR-3 invariant that context flows end to
// end through library code: budgets and client disconnects must cancel
// real compute, which they cannot do across a call that manufactures a
// fresh root context or silently drops the one in scope.
//
// Two rules, checked in every package the driver points it at (cpsdynlint
// scopes it to the library packages under internal/), with no exemption:
//
//  1. No context.Background() or context.TODO(): only main packages and
//     tests mint a root context.
//
//  2. A function that receives a context.Context must not call a
//     context-discarding variant when a context-aware sibling exists:
//     calling app.Derive() with a ctx in scope silently unplugs
//     cancellation, because (*Application).DeriveContext is the same
//     computation with the wire connected. The sibling is found by name —
//     F's twin is FContext on the same receiver (for methods) or in the
//     same package (for functions).
package ctxflow

import (
	"go/ast"
	"go/types"

	"cpsdyn/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "library code must thread ctx end to end: no fresh root contexts, no ctx-discarding call variants",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if isRootContext(fn) {
				pass.Reportf(call.Pos(),
					"context.%s() in library code severs cancellation: take the caller's ctx and thread it through",
					fn.Name())
				return true
			}
			encl := analysis.EnclosingFunc(file, call.Pos())
			if encl == nil || !funcHasCtxParam(encl, pass.TypesInfo) {
				return true
			}
			if twin := contextTwin(fn); twin != nil {
				pass.Reportf(call.Pos(),
					"%s discards the ctx in scope; call %s so cancellation reaches the compute",
					fn.Name(), twin.Name())
			}
			return true
		})
	}
	return nil
}

// isRootContext reports whether fn is context.Background or context.TODO.
func isRootContext(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// funcHasCtxParam reports whether the declared function binds a usable
// (named, non-blank) context.Context parameter.
func funcHasCtxParam(decl *ast.FuncDecl, info *types.Info) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil && analysis.IsContextType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// contextTwin returns fn's context-aware sibling (<Name>Context with a
// context.Context parameter, on the same receiver or in the same package)
// when fn itself takes no context, or nil.
func contextTwin(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || analysis.SignatureHasContext(sig) {
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), fn.Name()+"Context")
	} else {
		obj = fn.Pkg().Scope().Lookup(fn.Name() + "Context")
	}
	twin, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if tsig, ok := twin.Type().(*types.Signature); ok && analysis.SignatureHasContext(tsig) {
		return twin
	}
	return nil
}
