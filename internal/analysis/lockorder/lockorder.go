// Package lockorder builds a static lock-acquisition graph and reports
// ordering cycles as potential deadlocks.
//
// The record/replay hot path threads two kinds of blocking resource: the
// det-section locks (replication.Recorder.mus; with one shard, the
// namespace global mutex of Figure 3) and the shared-memory rings, whose
// blocking Send/Recv/Reserve act as bounded locks under backpressure. A PR
// that acquires two of them in inconsistent orders on different paths creates a
// deadlock the simulator only hits under just the right backlog — the
// kind of latent cycle that static ordering analysis catches for free.
//
// The model, deliberately simple and conservative:
//
//   - acquisitions and lock identity: see flow.ClassifyLockOp — pthread
//     and sync mutexes, and blocking shm ring operations as transient
//     acquisitions;
//   - the transitive lock set of every callee comes from the flow
//     summaries, so holding a lock while calling a function that
//     (transitively, through any depth of helpers) locks another adds
//     an edge — including calls through interfaces, where the edge is
//     added for every tree-declared implementation (a deadlock through
//     any of them is still a deadlock);
//   - branches are walked with a copy of the held set, so alternative
//     if/else acquisitions do not contaminate each other;
//   - go statements start with an empty held set (the goroutine does
//     not inherit the spawner's locks);
//   - deferred unlocks are ignored: the lock is modeled as held until
//     the function returns, which is exactly what defer does.
//
// A cycle in the resulting graph (including a self-loop: reacquiring a
// held, non-reentrant pthread mutex) is reported once per cycle.
// Condition-variable Wait, which releases and reacquires its mutex, is
// outside the model.
//
// The pass also polices the reserve/commit idiom of the zero-copy
// fabric: a span claimed with Reserve or TryReserve holds ring sequence
// and capacity until Commit or Abort, and reservation order is
// publication order — so a local span that is never settled and never
// escapes the function permanently blocks every span reserved after it.
// The flow span summaries let the check see through helper calls: a
// span handed to a helper that provably settles it is safe, a helper
// that only uses it leaves the responsibility here, and a helper that
// settles on one path but early-returns around it on another leaks the
// reservation — reported at the reservation site with the chain to the
// unsettled exit.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
)

// Debug, when set (cmd/ftvet -lockgraph), receives a dump of every edge
// in the acquisition graph — the artifact behind the DESIGN.md ordering
// audit. A silent clean run proves the absence of cycles; the dump shows
// which orderings are actually being relied on.
var Debug io.Writer

// Analyzer is the lockorder pass. It is a Module analyzer: the lock
// graph spans packages (replication holds a det-section lock while the
// shm outbox blocks on the log ring).
var Analyzer = &ftvet.Analyzer{
	Name:   "lockorder",
	Doc:    "build a static lock-acquisition graph over pthread/sync mutexes and blocking shm ring operations; report ordering cycles as potential deadlocks, plus reserved spans that are never committed or aborted (a leaked reservation jams the ring's publication sequence)",
	Module: true,
	Run:    run,
}

type acquisition struct {
	id   string
	pos  token.Pos
	held []string
}

type callSite struct {
	call *ast.CallExpr
	pos  token.Pos
	held []string
}

func run(pass *ftvet.Pass) error {
	g := flow.Of(pass)

	// Pass 1: per-function held-set walk collecting acquisition sites
	// and the call sites made while holding locks. The transitive lock
	// sets behind those calls come from the flow summaries, so no local
	// fixpoint is needed.
	var acqs []acquisition
	var calls []callSite
	for _, node := range g.Functions() {
		w := &walker{pass: pass, pkg: node.Pkg, fname: node.Fn.FullName()}
		w.stmts(node.Decl.Body.List)
		acqs = append(acqs, w.acqs...)
		calls = append(calls, w.calls...)
		checkSpanLeaks(pass, g, node)
	}

	// Pass 2: edges held-lock -> acquired-lock.
	edges := map[string]map[string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]token.Pos{}
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = pos
		}
	}
	for _, a := range acqs {
		for _, h := range a.held {
			addEdge(h, a.id, a.pos)
		}
	}
	for _, c := range calls {
		if len(c.held) == 0 {
			continue
		}
		for _, callee := range g.CalleesAt(c.call) {
			if callee.Sum == nil {
				continue
			}
			for id := range callee.Sum.Locks {
				for _, h := range c.held {
					addEdge(h, id, c.pos)
				}
			}
		}
	}

	// Pass 3: cycle detection (deterministic DFS over sorted ids).
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	if Debug != nil {
		for _, n := range nodes {
			var succs []string
			for s := range edges[n] {
				succs = append(succs, s)
			}
			sort.Strings(succs)
			for _, s := range succs {
				fmt.Fprintf(Debug, "lockorder: %s -> %s (%s)\n", n, s, pass.Fset.Position(edges[n][s]))
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	reported := map[string]bool{}
	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		var succs []string
		for s := range edges[n] {
			succs = append(succs, s)
		}
		sort.Strings(succs)
		for _, s := range succs {
			switch color[s] {
			case white:
				visit(s)
			case gray:
				// Back edge: extract the cycle from the stack.
				i := len(stack) - 1
				for i >= 0 && stack[i] != s {
					i--
				}
				cycle := append(append([]string{}, stack[i:]...), s)
				key := canonical(cycle)
				if !reported[key] {
					reported[key] = true
					pass.Reportf(edges[n][s],
						"lock-order cycle (potential deadlock): %s; acquiring %q here while holding %q — pick one global order and stick to it",
						strings.Join(cycle, " -> "), s, n)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
	return nil
}

// checkSpanLeaks reports spans claimed from an shm ring (Reserve/
// TryReserve) into a local that no path settles: no Commit, no Abort,
// and no hand-off out of the function. The flow span summaries decide
// what a call does with a span argument: a callee that settles it (or
// an unresolvable call — conservative silence) discharges the
// reservation, a callee that merely uses it does not, and a callee that
// settles on one path but exits unsettled on another leaks it — that
// last case is reported with the interprocedural chain to the exit,
// because neither function shows the bug alone.
func checkSpanLeaks(pass *ftvet.Pass, g *flow.Graph, node *flow.Node) {
	pkg, fd := node.Pkg, node.Decl
	type reservation struct {
		obj  types.Object
		pos  token.Pos
		name string
	}
	var spans []reservation
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isReserveCall(pkg, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id] // plain `=` onto an existing local
		}
		if obj != nil {
			spans = append(spans, reservation{obj: obj, pos: as.Pos(), name: id.Name})
		}
		return true
	})
	for _, sp := range spans {
		uses := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == sp.obj {
					found = true
				}
				return !found
			})
			return found
		}
		settled, escaped := false, false
		var leak *flow.SpanInfo
		var leakCallee *types.Func
		var leakVia []flow.Hop
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if settled || escaped {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pkg.Info.Uses[id] == sp.obj {
						switch sel.Sel.Name {
						case "Commit", "Abort":
							settled = true
							return false
						}
					}
				}
				for i, a := range n.Args {
					if !uses(a) {
						continue
					}
					// Judge the hand-off by the callee's span summary
					// when the call resolves statically in-tree;
					// otherwise keep the conservative escape reading.
					var info *flow.SpanInfo
					var calleeFn *types.Func
					if fn := pkg.CalleeFunc(n); fn != nil {
						if cn := g.NodeOf(fn); cn != nil && cn.Sum != nil {
							if si, ok := cn.Sum.SpanParams[i]; ok {
								info = &si
								calleeFn = fn
							}
						}
					}
					if info == nil {
						escaped = true
						return false
					}
					switch info.Disp {
					case flow.SpanSettles:
						settled = true
						return false
					case flow.SpanLeaks:
						if leak == nil {
							leak = info
							leakCallee = calleeFn
							leakVia = append([]flow.Hop{{Name: calleeName(calleeFn), Pos: n.Pos()}}, info.Via...)
						}
					case flow.SpanPassThrough:
						// The callee only used the span; keep scanning.
					}
				}
			case *ast.ReturnStmt:
				for _, e := range n.Results {
					if uses(e) {
						escaped = true
						return false
					}
				}
			case *ast.AssignStmt:
				// Any re-assignment of the span value (link.span = sp,
				// alias := sp) hands it off; the defining statement itself
				// has the Reserve call, not the local, on its RHS.
				for _, e := range n.Rhs {
					if uses(e) {
						escaped = true
						return false
					}
				}
			case *ast.SendStmt:
				if uses(n.Value) {
					escaped = true
					return false
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if uses(e) {
						escaped = true
						return false
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && uses(n.X) {
					escaped = true
					return false
				}
			}
			return true
		})
		switch {
		case settled || escaped:
		case leak != nil:
			trace := make([]ftvet.TraceStep, 0, len(leakVia)+1)
			for _, h := range leakVia {
				trace = append(trace, ftvet.TraceStep{Pos: h.Pos, Note: "span handed to " + h.Name})
			}
			trace = append(trace, ftvet.TraceStep{Pos: leak.LeakPos, Note: "exits here without committing or aborting the span"})
			pass.ReportTrace(sp.pos, fmt.Sprintf(
				"span %q is reserved here and handed to %s, which can return without committing or aborting it: reservation order is publication order, so the unsettled span blocks every later span on this ring; settle it on every path in the callee or settle it here",
				sp.name, leakCallee.Name()), trace)
		default:
			pass.Reportf(sp.pos,
				"span %q is reserved but never committed or aborted: reservation order is publication order, so a leaked open span blocks every later span on this ring from publishing; Commit it, Abort it on early-exit paths, or hand it off",
				sp.name)
		}
	}
}

// calleeName renders a function for the leak trace.
func calleeName(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	return fn.Name()
}

// isReserveCall reports whether a call claims a span from an shm ring.
func isReserveCall(pkg *ftvet.Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.Contains(fn.Pkg().Path(), "internal/shm") {
		return false
	}
	return fn.Name() == "Reserve" || fn.Name() == "TryReserve"
}

// canonical normalizes a cycle (first element repeated at the end) to a
// rotation-independent key.
func canonical(cycle []string) string {
	body := cycle[:len(cycle)-1]
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rot := append(append([]string{}, body[min:]...), body[:min]...)
	return strings.Join(rot, "->")
}

// walker performs the held-set statement walk for one function.
type walker struct {
	pass  *ftvet.Pass
	pkg   *ftvet.Package
	fname string
	acqs  []acquisition
	calls []callSite
	held  []string
}

func (w *walker) snapshot() []string { return append([]string{}, w.held...) }

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks a statement with a copy of the held set, discarding its
// effects: alternative control-flow arms must not see each other's
// acquisitions.
func (w *walker) branch(s ast.Stmt) {
	if s == nil {
		return
	}
	saved := w.snapshot()
	w.stmt(s)
	w.held = saved
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branch(s.Body)
		w.branch(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.held = saved
	case *ast.RangeStmt:
		w.expr(s.X)
		w.branch(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the spawner's held locks.
		saved := w.snapshot()
		w.held = nil
		w.expr(s.Call.Fun)
		w.call(s.Call)
		w.held = saved
	case *ast.DeferStmt:
		// Deferred releases are intentionally ignored: the lock stays
		// held (in the model as in reality) until the function returns.
		// Deferred acquires/calls are walked with the current held set,
		// the state they will most likely see at exit.
		if kind, _ := flow.ClassifyLockOp(w.pkg, s.Call, w.fname); kind != flow.LockRelease {
			w.call(s.Call)
		}
	}
}

// expr walks an expression in evaluation order, processing calls and
// inlining function literals (a literal built here is assumed to run
// while the current locks are held — conservative for stored closures).
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, a := range n.Args {
				w.expr(a)
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				w.expr(sel.X)
			}
			w.call(n)
			return false
		case *ast.FuncLit:
			w.stmts(n.Body.List)
			return false
		}
		return true
	})
}

// call classifies and records one call expression.
func (w *walker) call(call *ast.CallExpr) {
	kind, id := flow.ClassifyLockOp(w.pkg, call, w.fname)
	switch kind {
	case flow.LockAcquire:
		for _, h := range w.held {
			if h == id {
				w.pass.Reportf(call.Pos(), "lock %q acquired while already held (pthread mutexes are not reentrant): this self-deadlocks at runtime", id)
				return
			}
		}
		w.acqs = append(w.acqs, acquisition{id: id, pos: call.Pos(), held: w.snapshot()})
		w.held = append(w.held, id)
	case flow.LockRelease:
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == id {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
	case flow.LockTransient:
		w.acqs = append(w.acqs, acquisition{id: id, pos: call.Pos(), held: w.snapshot()})
	case flow.LockNone:
		w.calls = append(w.calls, callSite{call: call, pos: call.Pos(), held: w.snapshot()})
	}
}
