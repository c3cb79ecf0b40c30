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

const baselines = "../../goldens/bench-baselines.json"

func TestRunWritesOneReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run(&out, "detshard", 1, false, path, baselines); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Per-object sequencing", "commit_wait_p50_speedup = ", "pins 2 of the 2 detshard ratios", "wrote " + path} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r bench.Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Exp != "detshard" || r.Seed != 1 || len(r.Points) == 0 || len(r.Ratios) != 2 {
		t.Errorf("report %s seed %d: %d points, %d ratios", r.Exp, r.Seed, len(r.Points), len(r.Ratios))
	}
	if strings.Contains(string(data), "wallclock") {
		t.Error("a host-clock field in the report")
	}
}

// TestRunJSONAndGateOutsideTheSweeps covers what the per-sweep printers got
// wrong: -json under -exp all left the last sweep in the file, and -gate
// was silently ignored wherever no ratio is pinned.
func TestRunJSONAndGateOutsideTheSweeps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "all.json")
	err := run(new(bytes.Buffer), "all", 1, true, path, "")
	if err == nil || !strings.Contains(err.Error(), "-json") {
		t.Errorf("-exp all -json: %v, want a usage error", err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Error("-exp all -json wrote a file before failing")
	}

	var out bytes.Buffer
	if err := run(&out, "fig1", 1, true, "", baselines); err != nil {
		t.Fatal(err)
	}
	if want := "gate: " + baselines + " pins 0 of the 0 fig1 ratios"; !strings.Contains(out.String(), want) {
		t.Errorf("-gate on an unpinned experiment printed no %q:\n%s", want, out.String())
	}

	if err := run(new(bytes.Buffer), "fig9", 1, true, "", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(new(bytes.Buffer), "fig1", 1, true, "", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
}

// TestRunGateFailureNamesTheRatio pins a ratio far above what the sweep
// reports.
func TestRunGateFailureNamesTheRatio(t *testing.T) {
	pins := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(pins, []byte(`{"tolerance": 0.25, "ratios": {"batching.nothing": 1, "latency.lan_over_mailbox": 1000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(new(bytes.Buffer), "latency", 1, true, "", pins)
	if err == nil || !strings.Contains(err.Error(), "latency.lan_over_mailbox = 202.2") {
		t.Errorf("gate error %v does not name the slipped ratio", err)
	}
	err = run(new(bytes.Buffer), "batching", 1, true, "", pins)
	if err == nil || !strings.Contains(err.Error(), "batching.nothing is pinned") {
		t.Errorf("gate error %v does not name the pinned ratio no report carries", err)
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
