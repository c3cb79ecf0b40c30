package ftvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func allowFixture(t *testing.T, src string) (*token.FileSet, *ast.File, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, []*Package{{Path: "fix", Files: []*ast.File{f}}}
}

func TestCollectAllows(t *testing.T) {
	const src = `package p

func a() {
	_ = 1 //ftvet:allow nondet: fixture waiver with a reason
}

//ftvet:allow nondet: standalone form covers the next line
func b() {}

func c() {
	_ = 2 //ftvet:allow nondet
	_ = 3 //ftvet:allow bogus: not a real analyzer
}
`
	fset, _, pkgs := allowFixture(t, src)
	marks, malformed := collectAllows(fset, pkgs, "nondet")
	if len(marks) != 2 {
		t.Fatalf("got %d valid marks, want 2: %+v", len(marks), marks)
	}
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %+v", len(malformed), malformed)
	}
	var msgs []string
	for _, d := range malformed {
		if d.Rule != "ftvet" {
			t.Errorf("malformed allow reported under %q, want the ftvet pseudo-rule", d.Rule)
		}
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"requires a justification", "unknown analyzer"} {
		if !strings.Contains(joined, want) {
			t.Errorf("malformed diagnostics missing %q:\n%s", want, joined)
		}
	}
}

func TestFilterAllows(t *testing.T) {
	const src = `package p

func a() {
	_ = 1 //ftvet:allow nondet: same-line waiver
	//ftvet:allow nondet: next-line waiver
	_ = 2
	_ = 3
}
`
	fset, f, pkgs := allowFixture(t, src)
	marks, malformed := collectAllows(fset, pkgs, "nondet")
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed allows: %+v", malformed)
	}
	pos := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	diags := []Diagnostic{
		{Rule: "nondet", Pos: pos(4), Message: "same line"},
		{Rule: "nondet", Pos: pos(6), Message: "line below standalone"},
		{Rule: "nondet", Pos: pos(7), Message: "uncovered"},
		{Rule: "ftvet", Pos: pos(4), Message: "other rule not covered"},
	}
	out := filterAllows(fset, diags, marks)
	if len(out) != 2 {
		t.Fatalf("got %d surviving diagnostics, want 2: %+v", len(out), out)
	}
	for _, d := range out {
		if d.Message != "uncovered" && d.Message != "other rule not covered" {
			t.Errorf("wrong diagnostic survived: %+v", d)
		}
	}
}

// TestApplyAllowsKnownRule pins the allow semantics a check finishes with:
// an allow naming the checked rule is accepted, and one naming any other
// rule is diagnosed as unknown.
func TestApplyAllowsKnownRule(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //ftvet:allow nondet: waiver for the rule checked
	_ = 2 //ftvet:allow other: waiver for no rule of this check
}
`
	fset, _, pkgs := allowFixture(t, src)
	diags := ApplyAllows(fset, pkgs, "nondet", nil)
	if len(diags) != 1 || diags[0].Rule != "ftvet" || fset.Position(diags[0].Pos).Line != 5 {
		t.Fatalf("diags = %+v, want one ftvet unknown-analyzer finding, on line 5", diags)
	}
}
