package ftvet

import (
	"fmt"
	"go/token"
	"io"
	"time"
)

// Timing records one analyzer execution over one package, for the runtime
// budget.
type Timing struct {
	Analyzer string
	Pkg      string
	Elapsed  time.Duration
}

// Run executes the analyzers over the package set and returns the
// surviving diagnostics: each analyzer runs once per package;
// //ftvet:allow marks are applied afterwards, and malformed allow comments
// are appended as findings of the pseudo-analyzer "ftvet".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(fset, pkgs, analyzers)
	return diags, err
}

// RunTimed is Run plus per-execution timings (the analyzer runtime
// budget). An //ftvet:allow naming none of the analyzers run is diagnosed
// as unknown: that is how a typo'd allow, which suppresses nothing, is
// kept from rotting silently.
func RunTimed(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	var diags []Diagnostic
	var timings []Timing
	knownSet := map[string]bool{}
	for _, a := range analyzers {
		knownSet[a.Name] = true
	}
	shared := NewShared()
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, All: pkgs, Shared: shared, diags: &diags}
			start := time.Now()
			err := a.Run(pass)
			timings = append(timings, Timing{Analyzer: a.Name, Pkg: pkg.Path, Elapsed: time.Since(start)})
			if err != nil {
				return nil, timings, fmt.Errorf("ftvet: %s(%s): %w", a.Name, pkg.Path, err)
			}
		}
	}
	marks, malformed := collectAllows(fset, pkgs, knownSet)
	diags = filterAllows(fset, diags, marks)
	diags = append(diags, malformed...)
	sortDiags(fset, diags)
	return diags, timings, nil
}

// Print writes diagnostics in the canonical file:line:col format used by
// go vet, returning the number printed. Interprocedural traces follow
// the finding as indented hop lines.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) int {
	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
		for _, h := range d.Trace {
			hp := fset.Position(h.Pos)
			fmt.Fprintf(w, "\t%s:%d:%d: %s\n", hp.Filename, hp.Line, hp.Column, h.Note)
		}
	}
	return len(diags)
}
