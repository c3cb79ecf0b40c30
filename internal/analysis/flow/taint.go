package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/ftvet"
)

// TaintKind classifies a nondeterminism source.
type TaintKind uint8

const (
	TaintClock    TaintKind = iota // wall-clock read (time.Now / time.Since)
	TaintPid                       // process identity (os.Getpid)
	TaintRand                      // package-level math/rand draw
	TaintMapOrder                  // map-iteration order
)

func (k TaintKind) String() string {
	switch k {
	case TaintClock:
		return "wall-clock"
	case TaintPid:
		return "pid"
	case TaintRand:
		return "rand"
	case TaintMapOrder:
		return "map-order"
	}
	return "unknown"
}

// Taint records that a value may carry nondeterminism: Source/Desc name
// the ultimate source expression, Via the call chain from the function
// whose summary holds the taint down to the source (outermost call
// first, empty for an in-body source).
type Taint struct {
	Kind   TaintKind
	Source token.Pos
	Desc   string
	Via    []Hop
}

// Trace renders the taint's call chain as one clickable position per
// hop, ending at the source expression.
func (t Taint) Trace() []ftvet.TraceStep {
	out := make([]ftvet.TraceStep, 0, len(t.Via)+1)
	for _, h := range t.Via {
		out = append(out, ftvet.TraceStep{Pos: h.Pos, Note: "via call to " + h.Name})
	}
	return append(out, ftvet.TraceStep{Pos: t.Source, Note: t.Desc + " — the nondeterminism source"})
}

// Path renders the taint's hop names for embedding in a message:
// "stamp -> now -> time.Now". Empty for a direct (intra-function)
// taint.
func (t Taint) Path() string {
	if len(t.Via) == 0 {
		return ""
	}
	names := make([]string, 0, len(t.Via)+1)
	for _, h := range t.Via {
		names = append(names, h.Name)
	}
	names = append(names, t.Desc)
	return strings.Join(names, " -> ")
}

// maxTaints bounds a summary's taint list; beyond it additional sources
// add no new signal (the function is thoroughly nondeterministic).
const maxTaints = 16

// TaintEnv is the per-function variable-taint state after one walk of
// the body: which local objects may carry which taints. nondet uses it
// to check whether a tainted value reaches an ordered sink.
type TaintEnv struct {
	g    *Graph
	n    *Node
	vars map[types.Object][]Taint

	resultTaints []Taint
}

// FuncEnv walks the function body once in source order, propagating
// taint through assignments, and returns the resulting environment.
// The walk is flow-approximate: assignments only add taint (no strong
// updates), except that passing a variable to sort.*/slices.* clears
// its map-order taint — the collect-then-sort idiom re-establishes a
// deterministic order.
func (g *Graph) FuncEnv(n *Node) *TaintEnv {
	env := &TaintEnv{g: g, n: n, vars: map[types.Object][]Taint{}}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// A closure's assignments and returns are its own; its
			// returns in particular must not count as this function's
			// results.
			return false
		case *ast.AssignStmt:
			env.assign(x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(x.Names))
			for i, name := range x.Names {
				lhs[i] = name
			}
			env.assign(lhs, x.Values)
		case *ast.RangeStmt:
			env.rangeStmt(x)
		case *ast.CallExpr:
			env.sortClear(x)
		case *ast.ReturnStmt:
			env.returnStmt(x)
		}
		return true
	})
	env.resultTaints = dedupTaints(env.resultTaints)
	return env
}

// ExprTaints returns every taint syntactically reachable in e: direct
// denylist sources, tainted variables, and calls to functions whose
// summaries carry result taints. Function literals are opaque (they run
// later, if at all).
func (env *TaintEnv) ExprTaints(e ast.Expr) []Taint {
	if e == nil {
		return nil
	}
	var out []Taint
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := env.n.Pkg.ObjectOf(x); obj != nil {
				out = append(out, env.vars[obj]...)
			}
		case *ast.SelectorExpr:
			if t := qualifiedTaint(env.n.Pkg, x); t != nil {
				out = append(out, *t)
				return false
			}
		case *ast.CallExpr:
			out = append(out, env.CallTaints(x)...)
		}
		return true
	})
	return dedupTaints(out)
}

// CallTaints returns the taints a call's results may carry according to
// the (static) callee's summary, with the call site prepended to each
// trace. Dynamic dispatch contributes nothing: attributing one
// implementation's taint to every caller of the interface would flag
// code that never executes the tainted method.
func (env *TaintEnv) CallTaints(call *ast.CallExpr) []Taint {
	fn := env.n.Pkg.CalleeFunc(call)
	if fn == nil {
		return nil
	}
	cn := env.g.NodeOf(fn)
	if cn == nil || cn.Sum == nil {
		return nil
	}
	out := make([]Taint, 0, len(cn.Sum.ResultTaints))
	for _, t := range cn.Sum.ResultTaints {
		out = append(out, Taint{
			Kind:   t.Kind,
			Source: t.Source,
			Desc:   t.Desc,
			Via:    prependHop(shortName(fn), call.Pos(), t.Via),
		})
	}
	return out
}

func (env *TaintEnv) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 0 {
		return
	}
	for i, l := range lhs {
		r := rhs[0]
		if len(rhs) == len(lhs) {
			r = rhs[i]
		}
		taints := env.ExprTaints(r)
		if len(taints) == 0 {
			continue
		}
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := env.n.Pkg.ObjectOf(id); obj != nil {
			env.vars[obj] = dedupTaints(append(env.vars[obj], taints...))
		}
	}
}

// rangeStmt taints the loop variables of a map range with map-order.
func (env *TaintEnv) rangeStmt(rs *ast.RangeStmt) {
	t := env.n.Pkg.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	taint := Taint{Kind: TaintMapOrder, Source: rs.For, Desc: "map range"}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := env.n.Pkg.ObjectOf(id); obj != nil {
			env.vars[obj] = dedupTaints(append(env.vars[obj], taint))
		}
	}
}

// sortClear drops map-order taint from variables passed to sort.* or
// slices.* — after the sort, iteration-order nondeterminism is gone.
func (env *TaintEnv) sortClear(call *ast.CallExpr) {
	fn := env.n.Pkg.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return
	}
	for _, a := range call.Args {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		obj := env.n.Pkg.ObjectOf(id)
		if obj == nil {
			continue
		}
		kept := env.vars[obj][:0]
		for _, t := range env.vars[obj] {
			if t.Kind != TaintMapOrder {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			delete(env.vars, obj)
		} else {
			env.vars[obj] = kept
		}
	}
}

func (env *TaintEnv) returnStmt(ret *ast.ReturnStmt) {
	for _, e := range ret.Results {
		env.resultTaints = append(env.resultTaints, env.ExprTaints(e)...)
	}
}

// qualifiedTaint recognizes the denylist sources as qualified
// identifiers: time.Now/Since, os.Getpid, and package-level math/rand
// names. rand.New* is excluded — constructing a seeded source is exactly
// the sanctioned pattern (sim hands out deterministic *rand.Rand
// values); only the process-seeded package-level draws diverge.
func qualifiedTaint(pkg *ftvet.Package, sel *ast.SelectorExpr) *Taint {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkg := pkg.ObjectOf(id).(*types.PkgName); !isPkg {
		return nil
	}
	obj := pkg.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since":
			return &Taint{Kind: TaintClock, Source: sel.Pos(), Desc: "time." + obj.Name()}
		}
	case "os":
		if obj.Name() == "Getpid" {
			return &Taint{Kind: TaintPid, Source: sel.Pos(), Desc: "os.Getpid"}
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(obj.Name(), "New") {
			return &Taint{Kind: TaintRand, Source: sel.Pos(), Desc: "rand." + obj.Name()}
		}
	}
	return nil
}

// dedupTaints sorts and uniques a taint list by (kind, source), keeping
// the first (shortest-trace, since callers prepend) entry, and caps it.
func dedupTaints(ts []Taint) []Taint {
	if len(ts) == 0 {
		return nil
	}
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].Kind != ts[j].Kind {
			return ts[i].Kind < ts[j].Kind
		}
		return ts[i].Source < ts[j].Source
	})
	out := ts[:0]
	for _, t := range ts {
		if len(out) > 0 && out[len(out)-1].Kind == t.Kind && out[len(out)-1].Source == t.Source {
			continue
		}
		out = append(out, t)
	}
	if len(out) > maxTaints {
		out = out[:maxTaints]
	}
	return out
}
