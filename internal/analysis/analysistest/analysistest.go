// Package analysistest runs nondet, ftvet's checker, over golden fixture
// packages under a testdata/src tree, mirroring the x/tools package of the
// same name: fixture lines carry trailing
//
//	// want "regexp"
//
// comments (several per line allowed), and the test fails on any
// diagnostic without a matching want, or any want without a matching
// diagnostic. The //ftvet:allow escape hatch is honored, so fixtures can
// assert suppression behavior too.
//
// Fixture packages live under <testdata>/src/<importpath>/ and are
// loaded in fixture mode: the import path maps verbatim onto the
// directory, so a fixture can declare itself "repro/internal/apps/x"
// (making it a replicated package in nondet's eyes) and import stub
// packages like "repro/internal/pthread" defined alongside it. The go
// tool never builds testdata trees, so deliberately broken fixtures
// cannot break `go build ./...`.
package analysistest

import (
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/ftvet"
	"repro/internal/analysis/nondet"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads each fixture package and checks them together with
// nondet.Check, comparing diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, paths ...string) {
	t.Helper()
	loader := ftvet.NewLoader(testdata+"/src", "")
	var pkgs []*ftvet.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	check(t, loader.Fset, pkgs, nondet.Check(loader.Fset, pkgs))
}

type wantKey struct {
	file string
	line int
}

// check matches diagnostics against want comments by file:line.
func check(t *testing.T, fset *token.FileSet, pkgs []*ftvet.Package, diags []ftvet.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					res, err := parseWants(m[1])
					if err != "" {
						t.Errorf("%s:%d: %s", pos.Filename, pos.Line, err)
						continue
					}
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], res...)
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := wantKey{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil // each want matches one diagnostic
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s [%s]", pos.Filename, pos.Line, d.Message, d.Rule)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

// parseWants parses the space-separated quoted regexps of a want
// comment: `// want "a" "b"`.
func parseWants(s string) ([]*regexp.Regexp, string) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, "malformed want comment: expected quoted regexp, got " + s
		}
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			return nil, "malformed want comment: unterminated quote"
		}
		re, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			return nil, "bad want regexp: " + err.Error()
		}
		out = append(out, re)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, "empty want comment"
	}
	return out, ""
}
