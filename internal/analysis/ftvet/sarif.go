package ftvet

import (
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"
	"strings"
)

// This file renders diagnostics as SARIF 2.1.0 for CI — the format GitHub
// code scanning ingests to annotate PR diffs inline. It carries the full
// interprocedural trace as relatedLocations on each result, so a reviewer
// can click from the sink annotation to every hop back to the
// nondeterminism source.

// relPath makes a diagnostic path root-relative (SARIF artifact URIs
// must not be absolute for GitHub to map them onto the checkout).
func relPath(root, name string) string {
	if root == "" {
		return filepath.ToSlash(name)
	}
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// sarif* mirror the fragment of the SARIF 2.1.0 schema GitHub code
// scanning consumes; nothing more.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
	FullDescription  sarifText `json:"fullDescription"`
	DefaultConfig    sarifCfg  `json:"defaultConfiguration"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifCfg struct {
	Level string `json:"level"`
}

type sarifResult struct {
	RuleID           string          `json:"ruleId"`
	RuleIndex        int             `json:"ruleIndex"`
	Level            string          `json:"level"`
	Message          sarifText       `json:"message"`
	Locations        []sarifLocation `json:"locations"`
	RelatedLocations []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
	Message          *sarifText    `json:"message,omitempty"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log with one rule per
// registered analyzer (plus the "ftvet" pseudo-rule for malformed allow
// directives), paths relative to root. Interprocedural traces become
// relatedLocations, source hop first.
func WriteSARIF(w io.Writer, fset *token.FileSet, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	driver := sarifDriver{Name: "ftvet"}
	ruleIdx := map[string]int{}
	addRule := func(id, short, full string) {
		if _, ok := ruleIdx[id]; ok {
			return
		}
		ruleIdx[id] = len(driver.Rules)
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               id,
			ShortDescription: sarifText{Text: short},
			FullDescription:  sarifText{Text: full},
			DefaultConfig:    sarifCfg{Level: "error"},
		})
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Name+": FT-invariant analyzer", a.Doc)
	}
	addRule("ftvet", "malformed //ftvet:allow directive",
		"the //ftvet:allow escape hatch requires a known analyzer name and a justification")

	loc := func(pos token.Pos, msg string) sarifLocation {
		p := fset.Position(pos)
		l := sarifLocation{PhysicalLocation: sarifPhysical{
			ArtifactLocation: sarifArtifact{URI: relPath(root, p.Filename)},
			Region:           sarifRegion{StartLine: p.Line, StartColumn: p.Column},
		}}
		if msg != "" {
			l.Message = &sarifText{Text: msg}
		}
		return l
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		// A diagnostic from an analyzer outside the registry (possible
		// when callers hand-craft diagnostics) still needs a rule entry.
		addRule(d.Analyzer, d.Analyzer, d.Analyzer)
		r := sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIdx[d.Analyzer],
			Level:     "error",
			Message:   sarifText{Text: d.Message},
			Locations: []sarifLocation{loc(d.Pos, "")},
		}
		for _, h := range d.Trace {
			r.RelatedLocations = append(r.RelatedLocations, loc(h.Pos, h.Note))
		}
		results = append(results, r)
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
