package ftvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// runFixture parses one source file into a package list Run can consume
// (the analyzers used here never touch type information).
func runFixture(t *testing.T, src string) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*Package{{Path: "p", Files: []*ast.File{f}}}
}

// TestRunTimedKnownRegistry pins the allow semantics: an allow naming an
// analyzer of the run is accepted, and one naming no analyzer of the run
// is diagnosed as unknown.
func TestRunTimedKnownRegistry(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //ftvet:allow nondet: waiver for the analyzer run
	_ = 2 //ftvet:allow other: waiver for no analyzer of this run
}
`
	fset, pkgs := runFixture(t, src)
	noop := &Analyzer{Name: "nondet", Doc: "noop", Run: func(pass *Pass) error { return nil }}
	diags, timings, err := RunTimed(fset, pkgs, []*Analyzer{noop})
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 1 || timings[0].Analyzer != "nondet" || timings[0].Pkg != "p" {
		t.Errorf("timings = %+v, want one per-package entry for nondet", timings)
	}
	if len(diags) != 1 || diags[0].Analyzer != "ftvet" || fset.Position(diags[0].Pos).Line != 5 {
		t.Fatalf("diags = %+v, want one ftvet unknown-analyzer finding, on line 5", diags)
	}
}
