package flow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/ftvet"
)

// Watermark-arm detection: the structural shapes come from the
// watermark analyzer (append to a slice of watermark-carrying structs,
// map-index store of one into a grant table); the summary layer adds
// what the intraprocedural pass cannot see — a flush that happens inside
// a called helper counts as domination, and a helper that arms without a
// flush of its own turns its call sites into arm sites for callers.

// WatermarkAppend reports whether the call is append(q, w...) where the
// slice's element type is a struct carrying a watermark field.
func WatermarkAppend(pkg *ftvet.Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	t := pkg.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return WatermarkStruct(sl.Elem())
}

// WatermarkTableStore reports whether lhs is a map-index store whose
// value type is a watermark-carrying struct — the per-object grant-table
// idiom (`table[obj] = waiter{watermark: seqObj, ...}`).
func WatermarkTableStore(pkg *ftvet.Package, lhs ast.Expr) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pkg.TypeOf(idx.X)
	if t == nil {
		return false
	}
	mp, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	return WatermarkStruct(mp.Elem())
}

// WatermarkStruct reports whether elem (a pointer indirection is looked
// through) is an armable output-commit waiter: a struct carrying both a
// watermark field and a callback (func-typed) field — the shape shared
// by the global queue (replication.stableWaiter, tcprep.syncWaiter) and
// the per-object grant table. Two exemptions keep plain watermark DATA
// lintable without flushes:
//
//   - the observability layer: the causal analyzer records receipt
//     watermarks in its critical-path values (causal.OutputPath), which
//     nothing ever waits on;
//   - the watermark-vector idiom of the N-way recorder: a per-replica
//     map (or slice) of watermark-carrying structs with no callback
//     field (replication.ReplicaWatermark) is a receipt-state snapshot
//     — there is no fn to fire, so storing one can neither stall nor
//     deadlock output release. The callback field is the discriminator:
//     a waiter without one cannot be released at all, so no real waiter
//     shape loses coverage.
func WatermarkStruct(elem types.Type) bool {
	if elem == nil {
		return false
	}
	if p, ok := elem.Underlying().(*types.Pointer); ok {
		elem = p.Elem()
	}
	if obsLayerType(elem) {
		return false
	}
	st, ok := elem.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	marked, armable := false, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if strings.EqualFold(f.Name(), "watermark") {
			marked = true
		}
		if _, isFn := f.Type().Underlying().(*types.Signature); isFn {
			armable = true
		}
	}
	return marked && armable
}

// obsLayerType reports whether the named type is defined in the
// sanctioned observability layer (repro/internal/obs and its
// subpackages): trace-analysis value types there carry watermark
// fields as recorded data, not as armable waiters.
func obsLayerType(elem types.Type) bool {
	n, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "repro/internal/obs" || strings.HasPrefix(path, "repro/internal/obs/")
}

// scanArms walks the function body with the watermark analyzer's
// structural dominance rules (a flush dominates everything after it in
// the same or an enclosing block; control-flow arms inherit but do not
// export dominance; function literals open a fresh scope) and records
// every arm site with its status. Two interprocedural upgrades over the
// intra pass: a statement that calls a helper whose summary flushes
// establishes dominance, and a call to a helper whose summary arms
// without an internal dominating flush is itself an arm site.
func (g *Graph) scanArms(n *Node) []ArmSite {
	pkg := n.Pkg
	var sites []ArmSite

	var scan func(stmts []ast.Stmt, flushSeen, inLit bool)

	// checkStmt records arm sites in the non-nested part of s.
	checkStmt := func(s ast.Stmt, flushSeen, inLit bool) {
		ast.Inspect(s, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.BlockStmt:
				return false // nested arms handled by scan
			case *ast.FuncLit:
				scan(x.Body.List, false, true)
				return false
			case *ast.CallExpr:
				if WatermarkAppend(pkg, x) {
					sites = append(sites, ArmSite{
						Pos: x.Pos(), ArmPos: x.Pos(),
						Dominated: flushSeen, InLit: inLit,
					})
					return true
				}
				if cn := g.staticCallee(pkg, x); cn != nil && cn.Sum != nil {
					if a := cn.Sum.UnflushedArm(); a != nil {
						sites = append(sites, ArmSite{
							Pos: x.Pos(), ArmPos: a.ArmPos, Table: a.Table,
							Dominated: flushSeen, InLit: inLit,
							Callee: cn.Fn,
							Via:    prependHop(shortName(cn.Fn), x.Pos(), a.Via),
						})
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if WatermarkTableStore(pkg, lhs) {
						sites = append(sites, ArmSite{
							Pos: lhs.Pos(), ArmPos: lhs.Pos(), Table: true,
							Dominated: flushSeen, InLit: inLit,
						})
					}
				}
			}
			return true
		})
	}

	// stmtFlushes reports whether s directly (outside nested blocks and
	// function literals) calls a flush-family function or a helper whose
	// summary (transitively) flushes.
	stmtFlushes := func(s ast.Stmt) bool {
		found := false
		ast.Inspect(s, func(x ast.Node) bool {
			if found {
				return false
			}
			switch x := x.(type) {
			case *ast.BlockStmt, *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if strings.Contains(strings.ToLower(calleeName(x)), "flush") {
					found = true
					return false
				}
				if cn := g.staticCallee(pkg, x); cn != nil && cn.Sum != nil && cn.Sum.Flushes {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	scan = func(stmts []ast.Stmt, flushSeen, inLit bool) {
		for _, s := range stmts {
			checkStmt(s, flushSeen, inLit)
			if stmtFlushes(s) {
				flushSeen = true
			}
			switch s := s.(type) {
			case *ast.BlockStmt:
				scan(s.List, flushSeen, inLit)
			case *ast.IfStmt:
				scan(s.Body.List, flushSeen, inLit)
				if s.Else != nil {
					scan([]ast.Stmt{s.Else}, flushSeen, inLit)
				}
			case *ast.ForStmt:
				scan(s.Body.List, flushSeen, inLit)
			case *ast.RangeStmt:
				scan(s.Body.List, flushSeen, inLit)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						scan(cc.Body, flushSeen, inLit)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						scan(cc.Body, flushSeen, inLit)
					}
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						scan(cc.Body, flushSeen, inLit)
					}
				}
			case *ast.LabeledStmt:
				scan([]ast.Stmt{s.Stmt}, flushSeen, inLit)
			}
		}
	}
	scan(n.Decl.Body.List, false, false)
	return sites
}

// staticCallee resolves a call to its in-tree node when the call is
// static (not interface dispatch), else nil.
func (g *Graph) staticCallee(pkg *ftvet.Package, call *ast.CallExpr) *Node {
	fn := pkg.CalleeFunc(call)
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}
