// Package lockorder builds a static lock-acquisition graph over the
// pthread and sync mutexes and reports ordering cycles as potential
// deadlocks.
//
// It is the one ftvet rule besides nondet that a runtime check does not
// duplicate (DESIGN.md §10): the simulation interleaves threads only at
// virtual-time steps, so an ABBA pair whose two orders never overlap in
// any seeded schedule — the audit's memcached accept/worker plant — passes
// every test, golden and chaos run, yet deadlocks the first time real
// timing lines the orders up.
//
// The model, deliberately simple and conservative:
//
//   - acquisitions and lock identity: see flow.ClassifyLockOp;
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
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
)

// Analyzer is the lockorder pass. It is a Module analyzer: the lock
// graph spans packages (a lock held across a call into another package).
var Analyzer = &ftvet.Analyzer{
	Name:   "lockorder",
	Doc:    "build a static lock-acquisition graph over pthread/sync mutexes; report ordering cycles as potential deadlocks",
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
					addEdge(h, id, c.call.Pos())
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
	case flow.LockNone:
		w.calls = append(w.calls, callSite{call: call, held: w.snapshot()})
	}
}
