package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// maxHops bounds trace length through deep call chains and recursion:
// joins drop hops beyond this depth (the trace stays truthful, just
// truncated at its deep end).
const maxHops = 8

// Hop is one call edge of an interprocedural trace: the callee's short
// name and the call site's position in the caller.
type Hop struct {
	Name string
	Pos  token.Pos
}

// EffectKind classifies the behaviors summaries track for the
// deterministic-section rules.
type EffectKind uint8

const (
	EffSpawn   EffectKind = iota // spawns a goroutine
	EffChanOp                    // channel send/receive/close/select
	EffShmCall                   // calls into the shm mailbox
	effKinds
)

// effectOrder fixes the iteration order for deterministic propagation
// and reporting.
var effectOrder = [...]EffectKind{EffSpawn, EffChanOp, EffShmCall}

// Effect records that a function's body can reach a forbidden-in-
// section operation: Pos/Desc name the ultimate site, Via the call
// chain from the summarized function to it (outermost call first,
// empty for a direct occurrence).
type Effect struct {
	Kind EffectKind
	Pos  token.Pos
	Desc string
	Via  []Hop
}

// SpanDisp classifies how a function treats a *shm.Span parameter.
type SpanDisp uint8

const (
	// SpanPassThrough: the function uses the span (Put, Len, …) but
	// neither settles nor stores it — responsibility stays with the
	// caller, exactly as if the call were inlined.
	SpanPassThrough SpanDisp = iota
	// SpanSettles: every path through the function commits, aborts, or
	// hands the span off (stores/returns/escapes it).
	SpanSettles
	// SpanLeaks: the function settles the span on some path but exits
	// without settling on another (the early-return leak) — no caller
	// can recover, so the reservation site is reportable.
	SpanLeaks
)

// SpanInfo is the summary entry for one *shm.Span parameter.
type SpanInfo struct {
	Disp    SpanDisp
	LeakPos token.Pos // the unsettled return (or end of function) for SpanLeaks
	Via     []Hop     // call chain when the leak happens in a deeper callee
}

// ArmSite is one place a function arms an output-commit watermark
// waiter, with its force-flush domination status (the §3.5 invariant).
// For Callee == nil the arm is in this function's own body (ArmPos ==
// Pos); otherwise Pos is a call to a function that arms without an
// internal dominating flush, and ArmPos/Via locate the ultimate arm.
type ArmSite struct {
	Pos       token.Pos
	ArmPos    token.Pos
	Table     bool // map-index grant-table store rather than an append
	Dominated bool // a force-flush dominates the site within this function
	InLit     bool // inside a function literal (runs later; callers' flushes don't help)
	Callee    *types.Func
	Via       []Hop
}

// Summary is one function's fixpoint summary.
type Summary struct {
	// ResultTaints lists the nondeterminism taints any result value may
	// carry (see taint.go).
	ResultTaints []Taint

	// ResultParams marks parameters (by position, receiver excluded)
	// whose values may flow into a result.
	ResultParams []bool

	// Effects holds the first discovered site per effect kind,
	// propagated through static calls.
	Effects [effKinds]*Effect

	// Flushes reports that the function (transitively) calls a
	// flush-family function — its call sites count as force-flush
	// domination for the watermark rule.
	Flushes bool

	// Locks maps every lock the function may (transitively) acquire to
	// the first acquisition site, including interface-dispatched calls.
	Locks map[string]token.Pos

	// SpanParams maps *shm.Span parameter positions to their
	// disposition.
	SpanParams map[int]SpanInfo

	// ArmSites lists watermark-arming sites with domination status.
	ArmSites []ArmSite

	// TruncSites lists retained-history truncations with their
	// verified-boundary sanction status (see trunc.go).
	TruncSites []TruncSite
}

// Effect returns the summary's entry for kind, or nil.
func (s *Summary) Effect(kind EffectKind) *Effect {
	if s == nil {
		return nil
	}
	return s.Effects[kind]
}

// UnflushedArm returns the first arm site that escapes force-flush
// domination inside the function, or nil. Sites inside function
// literals are excluded: they run when the literal is invoked, not when
// this function is called, so a caller's flush neither helps nor is
// needed at the call site — the watermark analyzer reports them at the
// literal directly.
func (s *Summary) UnflushedArm() *ArmSite {
	if s == nil {
		return nil
	}
	for i := range s.ArmSites {
		a := &s.ArmSites[i]
		if !a.Dominated && !a.InLit {
			return a
		}
	}
	return nil
}

// ArmsUnflushed reports whether some arm site escapes force-flush
// domination inside the function (making its call sites arming sites
// for callers).
func (s *Summary) ArmsUnflushed() bool { return s.UnflushedArm() != nil }

// shortName renders a function compactly for traces: Recv.Name for
// methods, pkg.Name for package functions.
func shortName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// prependHop pushes a new outermost call onto a trace, respecting the
// hop bound.
func prependHop(name string, pos token.Pos, via []Hop) []Hop {
	if len(via) >= maxHops {
		via = via[:maxHops-1]
	}
	out := make([]Hop, 0, len(via)+1)
	out = append(out, Hop{Name: name, Pos: pos})
	return append(out, via...)
}

// summarize drives the bottom-up fixpoint: SCCs are processed callees-
// first, and each component iterates until its members' summaries stop
// changing (recursion converges because every summary dimension is
// monotone: effects, locks and taints only grow, and flush domination
// only flips toward dominated).
func (g *Graph) summarize() {
	for _, scc := range g.sccs {
		for iter := 0; iter < 32; iter++ {
			changed := false
			for _, n := range scc {
				if g.summarizeNode(n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// summarizeNode recomputes one function's summary from its body and its
// callees' current summaries, reporting whether it changed.
func (g *Graph) summarizeNode(n *Node) bool {
	s := &Summary{Locks: map[string]token.Pos{}}
	g.directScan(n, s)

	// Propagate callee summaries. Effects and flushes cross direct
	// static edges only: dispatch fan-out would attribute one
	// implementation's behavior to every caller of the interface, and a
	// call inside a function literal (a Schedule callback, a stored
	// closure) runs later — its effects do not happen at this call.
	// Lock sets cross dynamic and literal edges too, because a deadlock
	// through any implementation, whenever the closure runs, is still a
	// deadlock.
	for _, e := range n.Out {
		cs := e.Callee.Sum
		if cs == nil {
			continue
		}
		for id, pos := range cs.Locks {
			if _, ok := s.Locks[id]; !ok {
				s.Locks[id] = pos
			}
		}
		if e.Dynamic || e.InLit {
			continue
		}
		if cs.Flushes {
			s.Flushes = true
		}
		for _, kind := range effectOrder {
			if s.Effects[kind] != nil {
				continue
			}
			if eff := cs.Effects[kind]; eff != nil {
				s.Effects[kind] = &Effect{
					Kind: kind,
					Pos:  eff.Pos,
					Desc: eff.Desc,
					Via:  prependHop(shortName(e.Callee.Fn), e.Site.Pos(), eff.Via),
				}
			}
		}
	}

	s.ResultTaints, s.ResultParams = g.taintScan(n)
	s.ArmSites = g.scanArms(n)
	s.TruncSites = g.scanTrunc(n)
	s.SpanParams = g.spanScan(n)

	changed := fingerprint(s) != fingerprint(n.Sum)
	n.Sum = s
	return changed
}

// fingerprint reduces a summary to a comparison key for fixpoint
// change detection.
func fingerprint(s *Summary) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, t := range s.ResultTaints {
		fmt.Fprintf(&b, "t%d@%d;", t.Kind, t.Source)
	}
	for i, p := range s.ResultParams {
		if p {
			fmt.Fprintf(&b, "p%d;", i)
		}
	}
	for _, kind := range effectOrder {
		if e := s.Effects[kind]; e != nil {
			fmt.Fprintf(&b, "e%d@%d;", kind, e.Pos)
		}
	}
	if s.Flushes {
		b.WriteString("F;")
	}
	ids := make([]string, 0, len(s.Locks))
	for id := range s.Locks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "L%s;", strings.Join(ids, ","))
	for _, a := range s.ArmSites {
		fmt.Fprintf(&b, "a%d:%v;", a.Pos, a.Dominated)
	}
	for _, ts := range s.TruncSites {
		fmt.Fprintf(&b, "T%d:%v;", ts.Pos, ts.Sanctioned)
	}
	idxs := make([]int, 0, len(s.SpanParams))
	for i := range s.SpanParams {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		fmt.Fprintf(&b, "s%d:%d;", i, s.SpanParams[i].Disp)
	}
	return b.String()
}

// directScan collects the effects, lock acquisitions, and flush calls
// that appear textually in the function's own body. Function literals
// are walked too, but only for lock acquisitions: a closure built here
// usually escapes (handed to Schedule, stored for a flush loop) and
// runs later, so its effects and flushes do not happen at this call —
// while any lock it will eventually take still belongs in the
// transitive lock set.
func (g *Graph) directScan(n *Node, s *Summary) {
	pkg := n.Pkg
	owner := n.Fn.FullName()
	addEffect := func(kind EffectKind, pos token.Pos, desc string) {
		if s.Effects[kind] == nil {
			s.Effects[kind] = &Effect{Kind: kind, Pos: pos, Desc: desc}
		}
	}
	var walk func(root ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body, true)
				return false
			case *ast.GoStmt:
				if !inLit {
					addEffect(EffSpawn, x.Pos(), "goroutine spawn")
				}
			case *ast.SendStmt:
				if !inLit {
					addEffect(EffChanOp, x.Pos(), "channel send")
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !inLit {
					addEffect(EffChanOp, x.Pos(), "channel receive")
				}
			case *ast.SelectStmt:
				if !inLit {
					addEffect(EffChanOp, x.Pos(), "select statement")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && !inLit {
						addEffect(EffChanOp, x.Pos(), "close of a channel")
					}
				}
				if op, lockID := ClassifyLockOp(pkg, x, owner); op == LockAcquire || op == LockTransient {
					if _, ok := s.Locks[lockID]; !ok {
						s.Locks[lockID] = x.Pos()
					}
				}
				if fn := pkg.CalleeFunc(x); fn != nil && fn.Pkg() != nil && strings.Contains(fn.Pkg().Path(), "internal/shm") && !inLit {
					addEffect(EffShmCall, x.Pos(), fn.Pkg().Name()+"."+fn.Name()+" call")
				}
				if name := calleeName(x); strings.Contains(strings.ToLower(name), "flush") && !inLit {
					s.Flushes = true
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, false)
}

// calleeName extracts the bare called name from a call expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
