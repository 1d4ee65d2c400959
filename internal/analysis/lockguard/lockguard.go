// Package lockguard defines an Analyzer that checks two path-sensitive
// mutex invariants over the cfg/dataflow layer, and one rule on atomics:
//
//  1. a sync.Mutex/RWMutex acquired on some path must be released on every
//     path to a function exit (return, panic, or falling off the end) —
//     either by an explicit Unlock on each path or by a deferred Unlock;
//  2. a held lock must not live across an operation that may block
//     indefinitely: a channel send/receive, a select without default, a
//     range over a channel, or a call whose cross-package Blocks fact is
//     set (network I/O, WaitGroup waits, time.Sleep and friends);
//  3. no call to a package-level sync/atomic function (atomic.AddInt64,
//     LoadUint64, …): the variable it addresses stays a plain one that
//     any other line may read or write without the atomic API, which
//     races. A typed atomic (atomic.Int64, atomic.Pointer, …) has no
//     plain access, so the mix cannot be written.
//
// The second check is the bug class that deadlocks a fan-out under peer
// stall: a goroutine parks inside the critical section and every other
// goroutine queues up behind the lock. Functions that hold a lock across
// a blocking point deliberately (say, under a watchdog) annotate the
// declaration with //cpsdyn:lock-across <why>; the release-on-all-paths
// check is never exempted — a leaked lock is always a bug.
//
// Lock identity is the object-resolved receiver path (s.mu on two
// different receivers of the same name in one function are distinguished
// by the root object), and each acquisition site is tracked separately
// through a union-join dataflow, so "locked on some path, not released on
// another" is caught precisely. Unmatched unlocks are ignored: helpers
// releasing a caller-held lock are a legal (if unlovely) pattern.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cpsdyn/internal/analysis"
	"cpsdyn/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "check that mutexes are released on all paths and never held across blocking operations, and that atomics are typed",
	Run:  run,
}

const directive = "lock-across"

// acq is one live lock acquisition flowing through the dataflow lattice.
type acq struct {
	key      string    // object-resolved lock identity
	text     string    // lock expression as written, for messages
	pos      token.Pos // acquisition site
	rlock    bool      // RLock rather than Lock
	deferred bool      // a defer releases it on every exit
}

// state maps acquisition tokens (lock key + site) to their acq. The
// lattice is the powerset of acquisition sites ordered by inclusion; join
// is set union, so a lock held on either incoming path is held after the
// merge.
type state map[string]acq

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var pos token.Pos
			switch n := n.(type) {
			case *ast.CallExpr:
				checkAtomicCall(pass, n)
				return true
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				body, pos = n.Body, n.Pos()
			case *ast.FuncLit:
				// Analyzed as its own function: a literal's locks must
				// balance within the literal.
				body, pos = n.Body, n.Pos()
			default:
				return true
			}
			exempt := analysis.FuncDirective(analysis.EnclosingFunc(file, pos), directive)
			check(pass, body, exempt)
			return true
		})
	}
	return nil
}

// checkAtomicCall reports a call to a package-level sync/atomic function;
// the methods of the typed atomics are the sanctioned form.
func checkAtomicCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Signature().Recv() != nil {
		return
	}
	pass.Reportf(call.Pos(), "atomic.%s leaves its variable open to plain reads and writes that race with it; declare the variable as a typed atomic (atomic.Int64, atomic.Uint64, atomic.Pointer, …) and use its methods",
		fn.Name())
}

func check(pass *analysis.Pass, body *ast.BlockStmt, exempt bool) {
	g := cfg.New(body)
	ins := cfg.Forward(g, cfg.Flow[state]{
		Init: state{},
		Transfer: func(b *cfg.Block, in state) state {
			out := cloneState(in)
			for _, n := range b.Nodes {
				applyNode(pass, n, out)
			}
			return out
		},
		Join: func(a, b state) state {
			u := cloneState(a)
			for k, v := range b {
				if prev, ok := u[k]; ok {
					// Deferred only if every path deferred it: the
					// conservative merge reports the path that did not.
					v.deferred = v.deferred && prev.deferred
				}
				u[k] = v
			}
			return u
		},
		Equal: func(a, b state) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if w, ok := b[k]; !ok || v != w {
					return false
				}
			}
			return true
		},
		Clone: cloneState,
	})

	leaked := make(map[string]acq)
	for _, b := range g.Blocks {
		st, ok := ins[b]
		if !ok {
			continue // unreachable
		}
		st = cloneState(st)
		if !exempt && len(st) > 0 {
			if desc := blockingKind(pass, b); desc != "" {
				reportBlocking(pass, b.Stmt.Pos(), st, desc)
			}
		}
		for i, n := range b.Nodes {
			// The comm op of a select case does not block by itself — the
			// select head is the decision point, checked above.
			commNode := b.Kind == "select.case" && i == 0
			if !exempt && !commNode && len(st) > 0 {
				if bn, desc := blockingNode(pass, n); bn != nil {
					reportBlocking(pass, bn.Pos(), st, desc)
				}
			}
			applyNode(pass, n, st)
		}
		// A live block without successors is a function exit; a select
		// head keeps none when clause-less, which blocks forever instead.
		if len(b.Succs) == 0 && b.Kind != "select.head" {
			for k, a := range st {
				if !a.deferred {
					leaked[k] = a
				}
			}
		}
	}
	var leaks []acq
	for _, a := range leaked {
		leaks = append(leaks, a)
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, a := range leaks {
		pass.Reportf(a.pos, "%s is not released on every path to a function exit; defer the unlock or release it before each return",
			lockDesc(a))
	}
}

func lockDesc(a acq) string {
	if a.rlock {
		return a.text + " (read-locked here)"
	}
	return a.text + " (locked here)"
}

func reportBlocking(pass *analysis.Pass, pos token.Pos, st state, desc string) {
	names := make(map[string]bool)
	for _, a := range st {
		names[a.text] = true
	}
	var held []string
	for n := range names {
		held = append(held, n)
	}
	sort.Strings(held)
	pass.Reportf(pos, "%s held across %s; release it first or annotate the function //cpsdyn:lock-across <why>",
		strings.Join(held, ", "), desc)
}

// blockingKind reports whether the block itself is a blocking point: a
// select head without a default clause, or a range head over a channel.
func blockingKind(pass *analysis.Pass, b *cfg.Block) string {
	switch b.Kind {
	case "select.head":
		s := b.Stmt.(*ast.SelectStmt)
		for _, cl := range s.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return "" // a select with default polls
			}
		}
		return "select without default"
	case "range.head":
		s := b.Stmt.(*ast.RangeStmt)
		if t := pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
	}
	return ""
}

// blockingNode returns the first blocking operation inside node n, pruning
// function literals (their blocking happens when they run, as their own
// function).
func blockingNode(pass *analysis.Pass, n ast.Node) (ast.Node, string) {
	var found ast.Node
	var desc string
	ast.Inspect(n, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found, desc = x, "channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found, desc = x, "channel receive"
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, x)
			if pass.Facts.Of(fn).Blocks {
				found, desc = x, fmt.Sprintf("blocking call to %s", fn.Name())
			}
		}
		return true
	})
	return found, desc
}

// applyNode folds one shallow node's lock operations into st.
func applyNode(pass *analysis.Pass, n ast.Node, st state) {
	if d, ok := n.(*ast.DeferStmt); ok {
		applyDefer(pass, d.Call, st)
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			applyCall(pass, call, st)
		}
		return true
	})
}

// applyDefer handles `defer x.Unlock()` directly and the common
// `defer func() { ...; x.Unlock(); ... }()` wrapper (top-level statements
// of the literal only), marking matching acquisitions as deferred.
func applyDefer(pass *analysis.Pass, call *ast.CallExpr, st state) {
	if markDeferredUnlock(pass, call, st) {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, s := range lit.Body.List {
			if es, ok := s.(*ast.ExprStmt); ok {
				if c, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
					markDeferredUnlock(pass, c, st)
				}
			}
		}
	}
}

func markDeferredUnlock(pass *analysis.Pass, call *ast.CallExpr, st state) bool {
	kind, key, _ := lockOp(pass, call)
	switch kind {
	case "unlock", "runlock":
		for k, a := range st {
			if a.key == key && a.rlock == (kind == "runlock") {
				a.deferred = true
				st[k] = a
			}
		}
		return true
	}
	return false
}

func applyCall(pass *analysis.Pass, call *ast.CallExpr, st state) {
	kind, key, text := lockOp(pass, call)
	switch kind {
	case "lock", "rlock":
		tok := fmt.Sprintf("%s@%d", key, call.Pos())
		st[tok] = acq{key: key, text: text, pos: call.Pos(), rlock: kind == "rlock"}
	case "unlock", "runlock":
		for k, a := range st {
			if a.key == key && a.rlock == (kind == "runlock") {
				delete(st, k)
			}
		}
	}
}

// lockOp classifies call as a mutex operation and resolves the lock's
// identity. TryLock is deliberately not an acquisition: its result guards
// the critical section and tracking it needs branch correlation; the
// project style avoids it anyway.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (kind, key, text string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", "", ""
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		kind = "lock"
	case "(*sync.RWMutex).RLock":
		kind = "rlock"
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		kind = "unlock"
	case "(*sync.RWMutex).RUnlock":
		kind = "runlock"
	default:
		return "", "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	recv := ast.Unparen(sel.X)
	return kind, lockKey(pass.TypesInfo, recv), types.ExprString(recv)
}

// lockKey resolves a lock expression to a stable identity: identifier
// roots are keyed by their object's position (so shadowing cannot alias),
// selector hops by field name. Anything unresolvable falls back to the
// printed expression.
func lockKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%s#%d", e.Name, obj.Pos())
		}
		return e.Name
	case *ast.SelectorExpr:
		return lockKey(info, e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return lockKey(info, e.X)
	}
	return types.ExprString(e)
}
