// Package ftvet is the toolkit under cmd/ftvet's one checker,
// internal/analysis/nondet: a module-aware package loader built on
// go/types' source importer, the Diagnostic a finding is, the
// `//ftvet:allow` escape hatch (allow.go) and the text and SARIF
// renderings of the findings.
//
// The checker exists because the FT-Linux reproduction depends on an
// invariant the Go compiler cannot see and no runtime check catches in
// every schedule: determinism of replicated code (§3.3). The FT rules a
// runtime check does enforce — the deterministic-section discipline, a
// cycle-free lock order, flush before output commit (§3.5), truncation at
// a verified boundary — have no static check (DESIGN.md §10).
//
// golang.org/x/tools is not vendored (the module has no dependencies), so
// the loader and the vocabulary here are written for this one checker,
// nothing more.
package ftvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// TraceStep is one hop of an interprocedural diagnostic trace: where
// the tainted value / forbidden effect came from and each call edge it
// crossed on the way to the report site.
type TraceStep struct {
	Pos  token.Pos
	Note string
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Rule is the checker's name, or "ftvet" for a malformed
	// //ftvet:allow.
	Rule    string
	Pos     token.Pos
	Message string

	// Trace, when non-empty, is the interprocedural path behind the
	// finding, source first. Text output folds it into the message; the
	// SARIF writer emits it as relatedLocations so CI annotations link
	// every hop.
	Trace []TraceStep
}

// Print writes diagnostics in the canonical file:line:col format used by
// go vet, returning the number printed. Interprocedural traces follow
// the finding as indented hop lines.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) int {
	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", p.Filename, p.Line, p.Column, d.Message, d.Rule)
		for _, h := range d.Trace {
			hp := fset.Position(h.Pos)
			fmt.Fprintf(w, "\t%s:%d:%d: %s\n", hp.Filename, hp.Line, hp.Column, h.Note)
		}
	}
	return len(diags)
}

// TypeOf returns the type of e in the package, or nil.
func (pkg *Package) TypeOf(e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object denoted by the identifier, or nil.
func (pkg *Package) ObjectOf(id *ast.Ident) types.Object { return pkg.Info.ObjectOf(id) }

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil for builtins, conversions,
// and indirect calls through function values.
func (pkg *Package) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// sortDiags orders diagnostics by file position, then rule, so output
// and golden comparisons are deterministic.
func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}
