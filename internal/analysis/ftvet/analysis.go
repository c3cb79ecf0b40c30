// Package ftvet is the analysis framework behind cmd/ftvet: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a module-aware package
// loader built on go/types' source importer.
//
// The framework exists because the FT-Linux reproduction depends on an
// invariant the Go compiler cannot see and no runtime check catches in
// every schedule: determinism of replicated code (§3.3). It is an
// Analyzer; cmd/ftvet runs it; `//ftvet:allow` (see allow.go) is the
// audited escape hatch. The FT rules a runtime check does enforce — the
// deterministic-section discipline, a cycle-free lock order, flush before
// output commit (§3.5), truncation at a verified boundary — have no
// analyzer (DESIGN.md §10).
//
// golang.org/x/tools is not vendored (the module has no dependencies), so
// the subset of its API reproduced here is exactly what the FT analyzer
// needs, nothing more.
package ftvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Analyzer describes one invariant checker, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ftvet:allow comments. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description shown by `ftvet -list`.
	Doc string

	// Run executes the analyzer on a pass, reporting findings via
	// Pass.Report/Reportf.
	Run func(*Pass) error
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer execution over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// Pkg is the package under analysis.
	Pkg *Package

	// All is the full package set of the run (always populated).
	All []*Package

	// Shared is the run-wide cross-analyzer cache. Whole-program
	// artifacts that several analyzers consume — the call graph and the
	// function summaries of internal/analysis/flow — are built once per
	// Run and memoized here, keyed by name.
	Shared *Shared

	diags *[]Diagnostic
}

// Shared memoizes run-wide artifacts across analyzers and packages. One
// Shared is created per Run and handed to every Pass.
type Shared struct {
	mu   sync.Mutex
	vals map[string]any
}

// NewShared returns an empty run-wide cache (exported for tests and
// debug tooling that construct passes by hand).
func NewShared() *Shared { return &Shared{vals: map[string]any{}} }

// Get returns the cached value under key, building it on first use.
func (s *Shared) Get(key string, build func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.vals[key]; ok {
		return v
	}
	v := build()
	s.vals[key] = v
	return v
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
	Analyzer string
	Pos      token.Pos
	Message  string

	// Trace, when non-empty, is the interprocedural path behind the
	// finding, source first. Text output folds it into the message; the
	// SARIF writer emits it as relatedLocations so CI annotations link
	// every hop.
	Trace []TraceStep
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: msg})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// ReportTrace records a finding carrying an interprocedural trace
// (source hop first).
func (p *Pass) ReportTrace(pos token.Pos, msg string, trace []TraceStep) {
	*p.diags = append(*p.diags, Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: msg, Trace: trace})
}

// TypeOf returns the type of e in the pass's package, or nil.
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

// sortDiags orders diagnostics by file position, then analyzer name, so
// output and golden comparisons are deterministic.
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
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
