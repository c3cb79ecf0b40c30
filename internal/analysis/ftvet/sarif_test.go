package ftvet

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// sarifFixture builds a two-finding diagnostic list (one with an
// interprocedural trace, one of the ftvet pseudo-rule) over a real parsed file, so positions resolve.
func sarifFixture(t *testing.T) (*token.FileSet, string, []Diagnostic) {
	t.Helper()
	const src = `package p

func sink() {}

func source() {}
`
	fset := token.NewFileSet()
	root := filepath.FromSlash("/work/repo")
	name := filepath.Join(root, "internal", "p", "p.go")
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	sinkPos := f.Decls[0].Pos()   // line 3
	sourcePos := f.Decls[1].Pos() // line 5
	return fset, root, []Diagnostic{
		{
			Rule:    "nondet",
			Pos:     sinkPos,
			Message: "wall clock reaches replicated state",
			Trace: []TraceStep{
				{Pos: sourcePos, Note: "time.Now — the nondeterminism source"},
			},
		},
		{Rule: "ftvet", Pos: sourcePos, Message: "malformed ftvet:allow"},
	}
}

func TestWriteSARIF(t *testing.T) {
	fset, root, diags := sarifFixture(t)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, root, "nondet", "nondeterminism sources", diags); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("WriteSARIF produced invalid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ftvet" {
		t.Errorf("driver name = %q, want ftvet", run.Tool.Driver.Name)
	}
	// The checker's rule plus the ftvet pseudo-rule.
	if len(run.Tool.Driver.Rules) != 2 {
		t.Errorf("got %d rules, want 2 (nondet, ftvet)", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	if r := run.Results[1]; r.RuleID != "ftvet" || run.Tool.Driver.Rules[r.RuleIndex].ID != "ftvet" {
		t.Errorf("second result rule = %q (index %d), want a consistent ftvet binding", r.RuleID, r.RuleIndex)
	}
	r := run.Results[0]
	if r.RuleID != "nondet" || run.Tool.Driver.Rules[r.RuleIndex].ID != "nondet" {
		t.Errorf("result rule = %q (index %d), want a consistent nondet binding", r.RuleID, r.RuleIndex)
	}
	loc := r.Locations[0].PhysicalLocation
	if got := loc.ArtifactLocation.URI; got != "internal/p/p.go" {
		t.Errorf("artifact URI = %q, want the root-relative forward-slash path", got)
	}
	if loc.Region.StartLine != 3 {
		t.Errorf("startLine = %d, want 3", loc.Region.StartLine)
	}
	if len(r.RelatedLocations) != 1 {
		t.Fatalf("trace hop lost: got %d relatedLocations, want 1", len(r.RelatedLocations))
	}
	hop := r.RelatedLocations[0]
	if hop.PhysicalLocation.Region.StartLine != 5 || hop.Message == nil || hop.Message.Text == "" {
		t.Errorf("trace hop = %+v, want line 5 with the hop note attached", hop)
	}
}
