package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestRunWritesOneReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run(&out, "detshard", 1, false, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Per-object sequencing", "commit_wait_p50_speedup = "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []bench.Report
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("-exp detshard wrote %d reports, want 1", len(reports))
	}
	if r := reports[0]; r.Exp != "detshard" || r.Seed != 1 || len(r.Points) == 0 || len(r.Ratios) != 2 {
		t.Errorf("report %s seed %d: %d points, %d ratios", r.Exp, r.Seed, len(r.Points), len(r.Ratios))
	}
	if strings.Contains(string(data), "wallclock") {
		t.Error("a host-clock field in the report")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run(new(bytes.Buffer), "fig9", 1, true, path); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("a failed run wrote the report file")
	}
}

// TestFigureAliases: fig5 and fig7 are the traffic columns of fig4 and fig6.
func TestFigureAliases(t *testing.T) {
	for alias, name := range map[string]string{"fig5": "fig4", "fig7": "fig6"} {
		e, ok := bench.Lookup(alias)
		if !ok || e.Name != name {
			t.Errorf("-exp %s runs %q, want %s", alias, e.Name, name)
		}
	}
}
