package ftvet

import (
	"go/token"
	"strings"
)

// allowPrefix introduces the source-comment escape hatch:
//
//	//ftvet:allow <rule>: <justification>
//
// The comment suppresses that rule's diagnostics on its own source line
// (trailing form) and on the line directly below (standalone form). The
// justification is mandatory: an allow with no stated reason is itself a
// diagnostic, so every suppression in the tree documents why the
// invariant may be waived there. A name other than the checker's is also
// diagnosed, so a typo cannot silently disable enforcement.
const allowPrefix = "//ftvet:allow"

// ApplyAllows finishes a check of rule over pkgs: it drops the diagnostics
// an //ftvet:allow covers, appends each malformed allow as a finding of
// the pseudo-rule "ftvet" (which cannot itself be suppressed) and sorts
// the result by position.
func ApplyAllows(fset *token.FileSet, pkgs []*Package, rule string, diags []Diagnostic) []Diagnostic {
	marks, malformed := collectAllows(fset, pkgs, rule)
	diags = append(filterAllows(fset, diags, marks), malformed...)
	sortDiags(fset, diags)
	return diags
}

// allowMark is one parsed escape-hatch comment.
type allowMark struct {
	rule string
	pos  token.Pos
}

// collectAllows parses every //ftvet:allow comment in the package set:
// the marks naming rule, and a diagnostic for each malformed one.
func collectAllows(fset *token.FileSet, pkgs []*Package, rule string) (marks []allowMark, malformed []Diagnostic) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					if !strings.HasPrefix(text, allowPrefix) {
						continue
					}
					rest := strings.TrimPrefix(text, allowPrefix)
					if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
						malformed = append(malformed, Diagnostic{
							Rule:    "ftvet",
							Pos:     c.Pos(),
							Message: "malformed ftvet:allow: want \"//ftvet:allow <analyzer>: <justification>\"",
						})
						continue
					}
					name, justification, okColon := strings.Cut(strings.TrimSpace(rest), ":")
					name = strings.TrimSpace(name)
					if name != rule {
						malformed = append(malformed, Diagnostic{
							Rule:    "ftvet",
							Pos:     c.Pos(),
							Message: "ftvet:allow names unknown analyzer " + quote(name),
						})
						continue
					}
					if !okColon || strings.TrimSpace(justification) == "" {
						malformed = append(malformed, Diagnostic{
							Rule:    "ftvet",
							Pos:     c.Pos(),
							Message: "ftvet:allow " + name + " requires a justification: \"//ftvet:allow " + name + ": <why this waiver is sound>\"",
						})
						continue
					}
					marks = append(marks, allowMark{rule: name, pos: c.Pos()})
				}
			}
		}
	}
	return marks, malformed
}

func quote(s string) string {
	if s == "" {
		return `""`
	}
	return `"` + s + `"`
}

// filterAllows drops diagnostics covered by an allow mark: same rule on
// the mark's line (trailing comment) or the line directly below
// (standalone comment above the flagged statement).
func filterAllows(fset *token.FileSet, diags []Diagnostic, marks []allowMark) []Diagnostic {
	if len(marks) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		rule string
	}
	allowed := map[key]bool{}
	for _, m := range marks {
		p := fset.Position(m.pos)
		allowed[key{p.Filename, p.Line, m.rule}] = true
		allowed[key{p.Filename, p.Line + 1, m.rule}] = true
	}
	var out []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		if allowed[key{p.Filename, p.Line, d.Rule}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
