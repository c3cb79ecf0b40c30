package flow

import (
	"go/ast"
	"go/token"
	"strings"
)

// Retained-log truncation detection (the epoch-checkpoint idiom of
// DESIGN.md §18): dropping a prefix of a retained history —
// `x.history.DropFront(keep)` on a chunked log, `x.history =
// x.history[keep:]` on a slice — is only safe below a boundary a
// quorum of replicas has digest-verified; truncating an unverified
// prefix discards the only local copy of the catch-up state a promotion
// or rejoin may still need. The structural shape is a DropFront call on,
// or a self-reslice with a low bound of, a field or variable named
// "history"; the sanction is a preceding guard whose condition names the
// verified watermark (the `if verifiedSent < r.histBase { return }` clamp
// both the recorder and the replayer carry).

// TruncSite is one retained-history truncation in a function body.
type TruncSite struct {
	Pos token.Pos
	// Sanctioned marks a site preceded by an if-guard whose condition
	// mentions a verified boundary.
	Sanctioned bool
}

// retainedName returns the terminal name of a history-slice expression:
// "history" for `r.history` or a bare `history` identifier.
func retainedName(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	case *ast.Ident:
		return x.Name, true
	}
	return "", false
}

// mentionsVerified reports whether any identifier under e names a
// verified quantity (contains "verified", case-insensitive).
func mentionsVerified(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok &&
			strings.Contains(strings.ToLower(id.Name), "verified") {
			found = true
		}
		return !found
	})
	return found
}

// scanTrunc collects the function's retained-history truncation sites
// and marks each as sanctioned when an if-guard naming a verified
// boundary precedes it in the body.
func (g *Graph) scanTrunc(n *Node) []TruncSite {
	if n.Decl == nil || n.Decl.Body == nil {
		return nil
	}
	var guards []token.Pos
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if ifs, ok := x.(*ast.IfStmt); ok && mentionsVerified(ifs.Cond) {
			guards = append(guards, ifs.Pos())
		}
		return true
	})
	var sites []TruncSite
	add := func(pos token.Pos) {
		site := TruncSite{Pos: pos}
		for _, gp := range guards {
			if gp < pos {
				site.Sanctioned = true
				break
			}
		}
		sites = append(sites, site)
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "DropFront" {
				if name, ok := retainedName(sel.X); ok && strings.Contains(strings.ToLower(name), "history") {
					add(call.Pos())
				}
			}
			return true
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
		if !ok || sl.Low == nil {
			// No low bound: a tail trim or a fresh slice, not a prefix drop.
			return true
		}
		lname, lok := retainedName(as.Lhs[0])
		rname, rok := retainedName(sl.X)
		if !lok || !rok || lname != rname || !strings.Contains(strings.ToLower(lname), "history") {
			return true
		}
		add(as.Pos())
		return true
	})
	return sites
}
