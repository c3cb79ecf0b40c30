package flow

import (
	"fmt"
	"go/token"
	"go/types"
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

// Summary is one function's fixpoint summary.
type Summary struct {
	// ResultTaints lists the nondeterminism taints any result value may
	// carry (see taint.go).
	ResultTaints []Taint

	// Locks maps every lock the function may (transitively) acquire to
	// the first acquisition site, including interface-dispatched calls
	// and calls inside function literals (see locks.go).
	Locks map[string]token.Pos
}

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
// changing (recursion converges because taints and lock sets only grow).
func (g *Graph) summarize() {
	for _, scc := range g.sccs {
		for iter := 0; iter < 32; iter++ {
			changed := false
			for _, n := range scc {
				s := &Summary{ResultTaints: g.FuncEnv(n).resultTaints, Locks: g.lockSet(n)}
				if fingerprint(s) != fingerprint(n.Sum) {
					changed = true
				}
				n.Sum = s
			}
			if !changed {
				break
			}
		}
	}
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
	// Lock sets only grow, so their size is a complete change key.
	fmt.Fprintf(&b, "L%d", len(s.Locks))
	return b.String()
}
