// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The repo's CI environment
// pins the module to the standard library, so instead of importing the
// x/tools framework this package re-implements the slice of it that the
// cpsdyn invariant suite needs: an Analyzer/Pass pair, a package loader
// built on `go list -deps -json` + go/types, and (in the sibling
// analysistest package) a `// want`-comment test harness. The shapes match
// x/tools deliberately — if the dependency ever becomes available the
// analyzers port mechanically.
//
// The project invariants themselves live in the subpackages ctxflow,
// allocfree, determinism, lockguard, goroleak and atomicmix;
// cmd/cpsdynlint is the multichecker that CI runs as a blocking gate. See
// README.md for how to add an analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. Run inspects a single type-checked
// package through its Pass and reports findings via Pass.Report; a non-nil
// error means the analyzer itself failed (not that the code has findings).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass hands an Analyzer one type-checked package. Facts carries the
// cross-package function summaries Load derived over the whole dependency
// closure; it is nil-safe to query but only non-nil for packages that came
// through Load.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Facts     *Facts
	Report    func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectivePrefix is the comment prefix of all cpsdyn annotations, e.g.
// //cpsdyn:allocfree or //cpsdyn:ctx-compat. Text after the directive name
// is a free-form justification for the human reader.
const DirectivePrefix = "//cpsdyn:"

// hasDirective reports whether the comment group carries //cpsdyn:<name>.
// Directives are whole-word: //cpsdyn:ctx does not match //cpsdyn:ctx-compat.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, DirectivePrefix)
		if !ok {
			continue
		}
		word, _, _ := strings.Cut(text, " ")
		if strings.TrimSpace(word) == name {
			return true
		}
	}
	return false
}

// FuncDirective reports whether the function declaration's doc comment
// carries the //cpsdyn:<name> directive.
func FuncDirective(decl *ast.FuncDecl, name string) bool {
	return decl != nil && hasDirective(decl.Doc, name)
}

// LineDirective reports whether any comment on the same line as pos (in the
// file containing pos) carries the //cpsdyn:<name> directive. It is how
// single expressions — a metric emission, say — opt out of a check without
// exempting their whole function.
func LineDirective(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line == line &&
				hasDirective(&ast.CommentGroup{List: []*ast.Comment{c}}, name) {
				return true
			}
		}
	}
	return false
}

// StmtDirective reports whether a //cpsdyn:<name> directive sits on the
// same line as pos or on its own on the line directly above — the natural
// places to annotate a whole statement such as a `go` statement:
//
//	//cpsdyn:detached sctx bounds the read loop
//	go st.read(resp.Body)
func StmtDirective(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if (cl == line || cl == line-1) &&
				hasDirective(&ast.CommentGroup{List: []*ast.Comment{c}}, name) {
				return true
			}
		}
	}
	return false
}

// EnclosingFunc returns the innermost function declaration of file whose
// body spans pos, or nil. Function literals inherit their declaration's
// directives, so the innermost *declaration* is the annotation scope.
func EnclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// SignatureHasContext reports whether any parameter of sig (including
// variadic) is a context.Context.
func SignatureHasContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// CalleeFunc resolves the called function or method of call, or nil for
// builtins, conversions, function-typed variables and indirect calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
