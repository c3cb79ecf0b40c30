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
// interprocedural trace) over a real parsed file, so positions resolve.
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
			Analyzer: "nondet",
			Pos:      sinkPos,
			Message:  "wall clock reaches replicated state",
			Trace: []TraceStep{
				{Pos: sourcePos, Note: "time.Now — the nondeterminism source"},
			},
		},
		{Analyzer: "other", Pos: sourcePos, Message: "another finding"},
	}
}

func TestWriteSARIF(t *testing.T) {
	fset, root, diags := sarifFixture(t)
	analyzers := []*Analyzer{
		{Name: "nondet", Doc: "nondeterminism sources"},
		{Name: "other", Doc: "another analyzer"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, root, analyzers, diags); err != nil {
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
	// One rule per registered analyzer plus the ftvet pseudo-rule.
	if len(run.Tool.Driver.Rules) != 3 {
		t.Errorf("got %d rules, want 3 (nondet, other, ftvet)", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
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
