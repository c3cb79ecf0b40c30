// Package detsection polices deterministic sections.
//
// A deterministic section is the state update of one interposed
// operation: the statements between a pthread.Det Enter (or a Replay that
// reported true) and the matching Exit in the same function — the
// __det_start/__det_end bracket of Figure 3. On the primary it runs under
// the det-section lock owning the object and its position in the order is
// streamed to the secondary as a <Seq_thread, Seq_global, ft_pid> tuple;
// on the secondary it runs when replay reaches that tuple. Three rules
// follow:
//
//   - the section must not block: the lock serializes every replicated
//     thread's sections, so a blocked section stalls the whole namespace —
//     and on the secondary a section that waits on something only the
//     primary provides deadlocks replay;
//   - the section must not re-enter the replication machinery: calling
//     into the shared-memory mailbox (internal/shm) from inside a section
//     can block on ring backpressure while holding the lock — the flusher
//     that would drain the ring may itself need a section, a cycle the
//     runtime cannot detect;
//   - every Enter must reach its Exit: a path that returns with the
//     section still open keeps the det-section lock forever and leaves the
//     thread's tuple unwritten — the det-section twin of the
//     reserve-without-commit leak lockorder reports for ring spans.
//
// detsection therefore flags, between an Enter and its Exit: goroutine
// spawns, channel operations (send, receive, select, close), and any call
// into internal/shm; and it flags a return (or the end of the function)
// reached with a section open. The arguments of the Exit call itself are
// evaluated inside the section and are policed too. The blocking part of
// a resolve — the statements under `if !det.Replay(...)` before the Enter
// that follows them — runs outside the lock by design (§3.3: it may park,
// like accept or read) and is not policed.
//
// The checks are interprocedural via the flow summaries: a helper called
// inside a section is judged by what its body (transitively) can reach — a
// goroutine spawn, a channel operation, or an shm call buried two helpers
// deep is reported at the call site in the section, with the call chain to
// the ultimate site.
package detsection

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
)

// Analyzer is the detsection pass.
var Analyzer = &ftvet.Analyzer{
	Name: "detsection",
	Doc: "flag goroutine spawns, channel operations, and internal/shm calls between a " +
		"deterministic section's Enter and Exit, and an Enter with a path to return that " +
		"skips Exit: sections run under the det-section lock and must stay short, " +
		"non-blocking and closed (Figure 3)",
	Run: run,
}

func run(pass *ftvet.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var name string
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				name, body = n.Name.Name, n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			// The functions that implement the bracket open a section and
			// return with it open (or close one they did not open) on
			// purpose: their callers are the ones policed.
			if body != nil && role(name) == none {
				w := &walker{pass: pass, pkg: pass.Pkg}
				if w.stmts(body.List, false) {
					w.leak(body.Rbrace)
				}
			}
			return true
		})
	}
	return nil
}

// bracket says what a method name does to a section.
type bracket int

const (
	none   bracket = iota
	opens          // Enter, enter: the section is open when the call returns (if it reports a bool, when that is true)
	closes         // Exit, exit
)

func role(name string) bracket {
	switch name {
	case "Enter", "enter", "Replay":
		return opens
	case "Exit", "exit":
		return closes
	}
	return none
}

// bracketCall classifies a call as a section opener or closer: a method of
// that name on a type of the pthread or replication packages. cond reports
// an opener that returns a bool — the section is open only where it
// reported true.
func bracketCall(pkg *ftvet.Package, call *ast.CallExpr) (b bracket, cond bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return none, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return none, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return none, false
	}
	path := fn.Pkg().Path()
	if !strings.Contains(path, "internal/pthread") && !strings.Contains(path, "internal/replication") {
		return none, false
	}
	b = role(fn.Name())
	if b == opens && sig.Results().Len() == 1 {
		basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
		cond = ok && basic.Kind() == types.Bool
	}
	return b, cond
}

// walker tracks, statement by statement, whether a section may be open.
type walker struct {
	pass     *ftvet.Pass
	pkg      *ftvet.Package
	enterAt  token.Pos // the opener of the section currently (maybe) open
	deferred bool      // a deferred Exit closes whatever is open at return
}

func (w *walker) leak(at token.Pos) {
	if w.deferred {
		return
	}
	w.pass.ReportTrace(w.enterAt,
		"deterministic section opened here can reach a return without its Exit: the det-section lock stays held and the section's tuple is never written, stalling every replicated thread behind it (Figure 3); close the section on every path",
		[]ftvet.TraceStep{{Pos: at, Note: "returns here with the section still open"}})
}

// stmts walks a statement list that starts with the section open or not
// and reports whether it may still be open at the end.
func (w *walker) stmts(list []ast.Stmt, open bool) bool {
	for _, s := range list {
		open = w.stmt(s, open)
	}
	return open
}

func (w *walker) stmt(s ast.Stmt, open bool) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, open)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, open)
	case *ast.IfStmt:
		if s.Init != nil {
			open = w.stmt(s.Init, open)
		}
		thenOpen, elseOpen := w.cond(s.Cond, open)
		thenOpen = w.stmts(s.Body.List, thenOpen)
		if s.Else != nil {
			elseOpen = w.stmt(s.Else, elseOpen)
		}
		switch blk, isBlock := s.Else.(*ast.BlockStmt); {
		case terminates(s.Body):
			return elseOpen
		case isBlock && terminates(blk):
			return thenOpen
		}
		return thenOpen || elseOpen
	case *ast.ForStmt:
		return w.stmts(s.Body.List, open)
	case *ast.RangeStmt:
		return w.stmts(s.Body.List, open)
	case *ast.SwitchStmt:
		return w.clauses(s.Body, open)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, open)
	case *ast.SelectStmt:
		if open {
			w.checkNode(s)
			return open
		}
		return w.clauses(s.Body, open)
	case *ast.DeferStmt:
		if b, _ := bracketCall(w.pkg, s.Call); b == closes {
			w.deferred = true
			return open
		}
	case *ast.ReturnStmt:
		open = w.simple(s, open)
		if open {
			w.leak(s.Pos())
		}
		return false
	}
	return w.simple(s, open)
}

// clauses walks every arm of a switch or select from the same state.
func (w *walker) clauses(body *ast.BlockStmt, open bool) bool {
	after, exhaustive := false, false
	for _, c := range body.List {
		var arm []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			arm, exhaustive = c.Body, exhaustive || c.List == nil
		case *ast.CommClause:
			arm, exhaustive = c.Body, exhaustive || c.Comm == nil
		}
		if w.stmts(arm, open) {
			after = true
		}
	}
	return after || (open && !exhaustive)
}

// terminates reports whether a block always leaves the function.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// cond evaluates an if condition. A conditional opener in it splits the
// state: the section is open on the branch where the opener reported true —
// the else branch when the call sits under a negation.
func (w *walker) cond(e ast.Expr, open bool) (thenOpen, elseOpen bool) {
	thenOpen, elseOpen = open, open
	negated := map[*ast.CallExpr]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && n.Op == token.NOT {
				negated[call] = true
			}
		case *ast.CallExpr:
			if b, isCond := bracketCall(w.pkg, n); b == opens && isCond {
				w.enterAt = n.Pos()
				if negated[n] {
					elseOpen = true
				} else {
					thenOpen = true
				}
				return true
			}
			if open {
				w.check(n)
			}
		}
		return true
	})
	return thenOpen, elseOpen
}

// simple handles a statement without nested statement lists: it polices
// what runs while the section is open and applies the bracket calls it
// contains, in source order.
func (w *walker) simple(s ast.Stmt, open bool) bool {
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			if _, lit := n.(*ast.FuncLit); lit && !open {
				return false // a closure built outside a section is walked on its own
			}
			return !open || n == nil || w.checkNode(n)
		}
		switch b, _ := bracketCall(w.pkg, call); b {
		case opens:
			open = true
			w.enterAt = call.Pos()
			return false
		case closes:
			// The closer's arguments are evaluated inside the section.
			for _, a := range call.Args {
				ast.Inspect(a, func(n ast.Node) bool {
					return !open || n == nil || w.checkNode(n)
				})
			}
			open = false
			return false
		}
		if open {
			w.check(call)
		}
		return true
	})
	return open
}

// checkNode reports a forbidden construct inside an open section (nested
// literals included — a closure built inside the section is assumed to run
// inside it) and says whether to look inside the node too.
func (w *walker) checkNode(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.GoStmt:
		w.pass.Report(n.Pos(), "goroutine spawned inside a deterministic section: the spawn order would race the section order that replay reproduces; spawn outside the section (thread identity is assigned via OpThreadCreate sections)")
	case *ast.SendStmt:
		w.pass.Report(n.Pos(), "channel send inside a deterministic section can block while holding the namespace global mutex, stalling every replicated thread (Figure 3); hand the value off after the section returns")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.pass.Report(n.Pos(), "channel receive inside a deterministic section can block while holding the namespace global mutex, stalling every replicated thread (Figure 3)")
		}
	case *ast.SelectStmt:
		w.pass.Report(n.Pos(), "select inside a deterministic section: channel operations can block (or nondeterministically choose) while holding the namespace global mutex (Figure 3)")
		return false // one finding per select; don't re-flag its comm clauses
	case *ast.CallExpr:
		w.check(n)
	}
	return true
}

// check judges one call made while a section is open.
func (w *walker) check(call *ast.CallExpr) {
	pass, pkg := w.pass, w.pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			pass.Report(call.Pos(), "close of a channel inside a deterministic section: channel state changes must not be interleaved with the section order (Figure 3)")
			return
		}
	}
	fn := pkg.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if strings.Contains(fn.Pkg().Path(), "internal/shm") {
		pass.Reportf(call.Pos(), "call into the shared-memory mailbox (%s.%s) inside a deterministic section: re-entering the mailbox while holding the namespace global mutex can block on ring backpressure and breaks the <Seq_thread, Seq_global, ft_pid> serialization (Figure 3); buffer the message and send after the section", fn.Pkg().Name(), fn.Name())
		return
	}
	// A helper defined in-tree is judged by its summary: any effect its
	// body can transitively reach happens inside the section. (Direct
	// shm callees are excluded above — reporting their summaries too
	// would double-count the same site.)
	g := flow.Of(pass)
	node := g.NodeOf(fn)
	if node == nil || node.Sum == nil {
		return
	}
	for _, kind := range []flow.EffectKind{flow.EffSpawn, flow.EffChanOp, flow.EffShmCall} {
		if eff := node.Sum.Effect(kind); eff != nil {
			pass.ReportTrace(call.Pos(), fmt.Sprintf(
				"call to %s inside a deterministic section can reach a %s (%s): sections run under the namespace global mutex and must stay short and non-blocking (Figure 3)",
				fn.Name(), effectNoun(kind), describeChain(fn.Name(), eff)), eff.Trace())
		}
	}
}

// effectNoun names an effect kind for a diagnostic.
func effectNoun(kind flow.EffectKind) string {
	switch kind {
	case flow.EffSpawn:
		return "goroutine spawn"
	case flow.EffChanOp:
		return "channel operation"
	case flow.EffShmCall:
		return "call into the shared-memory mailbox"
	}
	return "forbidden operation"
}

// describeChain renders "helper -> deeper -> site" for a message.
func describeChain(first string, eff *flow.Effect) string {
	if p := eff.Path(); p != "" {
		return first + " -> " + p
	}
	return first + " -> " + eff.Desc
}
