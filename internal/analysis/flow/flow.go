// Package flow is the interprocedural engine under nondet, ftvet's checker:
// a call graph over the loaded package set plus per-function summaries
// computed bottom-up over strongly connected components.
//
// An intra-procedural check goes blind the moment a violation is wrapped
// in one helper call: a time.Now() hidden behind `func stamp() int64`, a
// map range collected by a helper and emitted by its caller. flow closes
// that hole with three layers:
//
//   - a call graph: one edge per call whose target is a function or
//     concrete method declared in the analyzed tree, plus type-set-bounded
//     resolution for interface method calls — a call through an interface
//     fans out to every concrete type declared in the tree that implements
//     it (the tree is a closed world);
//
//   - per-function summaries (summary.go, taint.go) iterated to fixpoint
//     over Tarjan SCCs in bottom-up (reverse topological) order, so
//     recursion converges: which taints a function's results carry
//     (wall-clock, pid, rand draws — the sources of taint.go's one table,
//     which nondet reads too — and map-iteration order);
//
//   - diagnostic traces: every taint carries the call chain back to its
//     source, so nondet reports source → hop → … → sink with a position
//     per hop.
//
// nondet.Check builds the graph once per check. Everything here is
// conservative in the same direction as the checker itself: unresolvable calls (function values, out-of-tree
// callees) contribute no edges and no taint, so the engine adds findings
// only along chains it can actually prove. Taint crosses static edges
// only.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/ftvet"
)

// Node is one declared function or method in the analyzed tree.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *ftvet.Package

	// Out holds this function's resolved call edges in source order,
	// calls inside its function literals included.
	Out []Edge

	// SCC is the index of the node's strongly connected component in
	// bottom-up order (callees have lower indices than their callers,
	// except within a cycle).
	SCC int

	// Sum is the function's fixpoint summary.
	Sum *Summary
}

// Edge is one resolved call: Site is the call expression in the
// caller's body, Callee the resolved target. Dynamic marks interface
// dispatch, where one site fans out to every implementing type.
type Edge struct {
	Site    *ast.CallExpr
	Callee  *Node
	Dynamic bool
}

// Graph is the package-set call graph plus summaries.
type Graph struct {
	Fset  *token.FileSet
	Pkgs  []*ftvet.Package
	Nodes map[*types.Func]*Node

	// order lists nodes deterministically (file, position).
	order []*Node

	// sccs lists components bottom-up (pure callees first).
	sccs [][]*Node

	// callees indexes resolution results per call site.
	callees map[*ast.CallExpr][]*Node
}

// Build constructs the call graph over the package set and computes all
// function summaries.
func Build(fset *token.FileSet, pkgs []*ftvet.Package) *Graph {
	g := &Graph{Fset: fset, Pkgs: pkgs, Nodes: map[*types.Func]*Node{}, callees: map[*ast.CallExpr][]*Node{}}
	g.collect()
	g.resolve()
	g.condense()
	g.summarize()
	return g
}

// NodeOf returns the graph node for fn, or nil when fn is not declared
// in the analyzed tree.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

// CalleesAt returns the resolved callees of a call site: one node for a
// static call, every implementing method for an interface call, nil for
// calls the graph cannot resolve (builtins, conversions, function
// values, out-of-tree targets).
func (g *Graph) CalleesAt(call *ast.CallExpr) []*Node { return g.callees[call] }

// Functions returns every node in deterministic order.
func (g *Graph) Functions() []*Node { return g.order }

// collect indexes every function and method declaration in the tree.
func (g *Graph) collect() {
	for _, pkg := range g.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				g.Nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
	}
	sort.SliceStable(g.order, func(i, j int) bool {
		pi, pj := g.Fset.Position(g.order[i].Decl.Pos()), g.Fset.Position(g.order[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
}

// errorIface is the universe error interface, excluded from dispatch
// resolution: every error type in the tree would otherwise become a
// candidate at every err.Error() site.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// resolve walks every function body and records its call edges.
func (g *Graph) resolve() {
	// Dispatch candidates: each concrete named type's declared methods,
	// the types in position order so fan-out is deterministic.
	methods := map[*types.TypeName]map[string]*Node{}
	var typeNames []*types.TypeName
	for _, n := range g.order {
		sig := n.Fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		named, ok := derefType(sig.Recv().Type()).(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		tn := named.Obj()
		if methods[tn] == nil {
			methods[tn] = map[string]*Node{}
			typeNames = append(typeNames, tn)
		}
		methods[tn][n.Fn.Name()] = n
	}
	sort.Slice(typeNames, func(i, j int) bool { return typeNames[i].Pos() < typeNames[j].Pos() })

	for _, n := range g.order {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			add := func(c *Node, dynamic bool) {
				n.Out = append(n.Out, Edge{Site: call, Callee: c, Dynamic: dynamic})
				g.callees[call] = append(g.callees[call], c)
			}
			if iface := dispatchIface(n.Pkg, call); iface != nil {
				name := ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel.Name
				for _, tn := range typeNames {
					m, ok := methods[tn][name]
					if ok && (types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)) {
						add(m, true)
					}
				}
			} else if c := g.NodeOf(n.Pkg.CalleeFunc(call)); c != nil {
				add(c, false)
			}
			return true
		})
	}
}

// dispatchIface returns the interface a method call dispatches through,
// or nil for a static call (and for error and empty interfaces).
func dispatchIface(pkg *ftvet.Package, call *ast.CallExpr) *types.Interface {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || !types.IsInterface(s.Recv()) {
		return nil
	}
	iface, ok := s.Recv().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || types.Identical(iface, errorIface) {
		return nil
	}
	return iface
}

// derefType strips one pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// condense runs Tarjan's algorithm; SCCs come out bottom-up (every
// successor component — callee — is emitted before its callers), which
// is exactly the order the summary fixpoint wants.
func (g *Graph) condense() {
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range v.Out {
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				w.SCC = len(g.sccs)
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			g.sccs = append(g.sccs, scc)
		}
	}
	for _, v := range g.order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
}
