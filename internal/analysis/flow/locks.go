package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/ftvet"
)

// Lock classification, shared between the summary engine (transitive
// lock sets) and the lockorder analyzer's held-set walker:
//
//   - acquisitions: pthread Mutex.Lock / RWLock.RdLock / RWLock.WrLock
//     and sync.Mutex/RWMutex Lock/RLock, released by the matching
//     unlocks;
//   - lock identity: the receiver's field path (Type.field), the
//     package-level variable (pkg.var), or a per-function node for
//     locals.

// LockOp classifies a call's effect on the lock model.
type LockOp int

const (
	LockNone LockOp = iota
	LockAcquire
	LockRelease
)

// ClassifyLockOp maps a call expression to a lock operation and the
// identity of the lock involved. owner names the enclosing function
// (local locks collapse onto a per-function node).
func ClassifyLockOp(pkg *ftvet.Package, call *ast.CallExpr, owner string) (LockOp, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockNone, ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() == nil {
		return LockNone, ""
	}
	path := fn.Pkg().Path()
	if path != "sync" && !strings.Contains(path, "internal/pthread") {
		return LockNone, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "RdLock", "WrLock":
		return LockAcquire, LockID(pkg, sel.X, owner)
	case "Unlock", "RUnlock", "RdUnlock", "WrUnlock":
		return LockRelease, LockID(pkg, sel.X, owner)
	}
	return LockNone, ""
}

// LockID names the lock object behind a receiver expression: a field
// selector becomes Type.field, a package-level var becomes pkg.var, and
// a local collapses onto a per-function node.
func LockID(pkg *ftvet.Package, e ast.Expr, owner string) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if named, ok := derefType(pkg.TypeOf(e.X)).(*types.Named); ok {
			obj := named.Obj()
			prefix := obj.Name()
			if obj.Pkg() != nil {
				prefix = obj.Pkg().Name() + "." + obj.Name()
			}
			return prefix + "." + e.Sel.Name
		}
		return "?." + e.Sel.Name
	case *ast.Ident:
		if obj := pkg.ObjectOf(e); obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
		}
		return owner + " local " + e.Name
	default:
		if t := pkg.TypeOf(e); t != nil {
			return types.TypeString(t, nil)
		}
		return fmt.Sprintf("anon@%d", int(e.Pos()))
	}
}

// lockSet computes the function's transitive lock set from its own body —
// function literals included: a closure built here may run later, but
// any lock it takes still belongs to whoever holds locks when it runs —
// and from its callees' current summaries over every edge.
func (g *Graph) lockSet(n *Node) map[string]token.Pos {
	locks := map[string]token.Pos{}
	add := func(id string, pos token.Pos) {
		if _, ok := locks[id]; !ok {
			locks[id] = pos
		}
	}
	owner := n.Fn.FullName()
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if op, id := ClassifyLockOp(n.Pkg, call, owner); op == LockAcquire {
				add(id, call.Pos())
			}
		}
		return true
	})
	for _, e := range n.Out {
		if e.Callee.Sum != nil {
			for id, pos := range e.Callee.Sum.Locks {
				add(id, pos)
			}
		}
	}
	return locks
}
