package flow

import (
	"fmt"
	"io"
)

// Debug dumps for cmd/ftvet: -callgraph prints the resolved edge list,
// -summary the per-function taint summaries. Both are line-oriented and
// deterministic (graph order is position-sorted), so runs diff cleanly.

// DumpCallGraph writes one line per resolved call edge:
//
//	caller -> callee [dynamic] (callsite position)
func (g *Graph) DumpCallGraph(w io.Writer) {
	for _, n := range g.order {
		for _, e := range n.Out {
			mark := ""
			if e.Dynamic {
				mark = " [dynamic]"
			}
			fmt.Fprintf(w, "%s -> %s%s (%s)\n", shortName(n.Fn), shortName(e.Callee.Fn), mark, g.Fset.Position(e.Site.Pos()))
		}
	}
}

// DumpSummaries writes each function whose results carry a taint, one
// indented line per taint.
func (g *Graph) DumpSummaries(w io.Writer) {
	for _, n := range g.order {
		if n.Sum == nil || len(n.Sum.ResultTaints) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (scc %d)\n", n.Fn.FullName(), n.SCC)
		for _, t := range n.Sum.ResultTaints {
			src := t.Desc
			if p := t.Path(); p != "" {
				src = p
			}
			fmt.Fprintf(w, "  taint: %s (%s)\n", t.Kind, src)
		}
	}
}
