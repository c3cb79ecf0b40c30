package flow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/ftvet"
)

// Lock classification, shared between the summary engine (transitive
// lock sets) and the lockorder analyzer's held-set walker. The model is
// the one lockorder established:
//
//   - acquisitions: pthread Mutex.Lock / RWLock.RdLock / RWLock.WrLock
//     and sync.Mutex/RWMutex Lock/RLock;
//   - transient acquisitions: blocking shm.Ring operations (Send,
//     SendBatch, Recv, RecvBatch, RecvTimeout, Reserve) — held only for
//     the call, but ordered after everything currently held;
//   - lock identity: the receiver's field path (Type.field), the
//     package-level variable (pkg.var), or a per-function node for
//     locals.

// LockOp classifies a call's effect on the lock model.
type LockOp int

const (
	LockNone LockOp = iota
	LockAcquire
	LockRelease
	LockTransient
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
	if !ok || fn.Pkg() == nil {
		return LockNone, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return LockNone, ""
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case strings.Contains(path, "internal/pthread"):
		switch name {
		case "Lock", "RdLock", "WrLock":
			return LockAcquire, LockID(pkg, sel.X, owner)
		case "Unlock", "RdUnlock", "WrUnlock":
			return LockRelease, LockID(pkg, sel.X, owner)
		}
	case path == "sync":
		switch name {
		case "Lock", "RLock":
			return LockAcquire, LockID(pkg, sel.X, owner)
		case "Unlock", "RUnlock":
			return LockRelease, LockID(pkg, sel.X, owner)
		}
	case strings.Contains(path, "internal/shm"):
		switch name {
		case "Send", "SendBatch", "Recv", "RecvBatch", "RecvTimeout", "Reserve":
			// Reserve blocks for ring capacity exactly like the wrapper
			// sends did (the claim is FIFO behind earlier reservations), so
			// it is ordered after everything currently held. Commit/Abort
			// never block and TryReserve fails instead of waiting — none of
			// them participate in the lock graph.
			return LockTransient, LockID(pkg, sel.X, owner) + "(ring)"
		}
	}
	return LockNone, ""
}

// LockID names the lock object behind a receiver expression: a field
// selector becomes Type.field, a package-level var becomes pkg.var, and
// a local collapses onto a per-function node.
func LockID(pkg *ftvet.Package, e ast.Expr, owner string) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if t := pkg.TypeOf(e.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				prefix := obj.Name()
				if obj.Pkg() != nil {
					prefix = obj.Pkg().Name() + "." + obj.Name()
				}
				return prefix + "." + e.Sel.Name
			}
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
