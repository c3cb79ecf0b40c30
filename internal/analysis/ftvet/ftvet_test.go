package ftvet_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis/ftvet"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/nondet"
)

var suite = []*ftvet.Analyzer{nondet.Analyzer, lockorder.Analyzer}

// TestRepoClean runs the full analyzer suite over the repository
// itself, so a regression that reintroduces a nondeterminism source or a
// lock-order cycle fails `go test` as well as `make lint`. It doubles as
// the analyzer runtime budget:
// load + full interprocedural run must stay under 60s so the fixpoint
// engine cannot quietly regress CI (per-analyzer timings print with -v).
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	loader := ftvet.NewLoader(root, "repro")
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing most of the tree", len(pkgs))
	}
	diags, timings, err := ftvet.RunTimed(loader.Fset, pkgs, suite, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	perAnalyzer := map[string]time.Duration{}
	for _, tm := range timings {
		perAnalyzer[tm.Analyzer] += tm.Elapsed
	}
	for _, a := range suite {
		t.Logf("%-12s %v", a.Name, perAnalyzer[a.Name].Round(time.Millisecond))
	}
	t.Logf("load + scan of %d packages: %v", len(pkgs), elapsed.Round(time.Millisecond))
	if elapsed > 60*time.Second {
		t.Errorf("full-repo scan took %v, over the 60s runtime budget", elapsed)
	}
	for _, d := range diags {
		p := loader.Fset.Position(d.Pos)
		t.Errorf("%s:%d:%d: %s [%s]", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
	}
}

// TestNondetCatchesPlantedClock proves the acceptance criterion that a
// time.Now() planted in a replicated app package is caught: it builds a
// scratch module whose only file mirrors internal/apps/pbzip2 and runs
// the suite over it.
func TestNondetCatchesPlantedClock(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "apps", "pbzip2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const src = `package pbzip2

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := ftvet.NewLoader(root, "repro")
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ftvet.Run(loader.Fset, pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "nondet" {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted time.Now() in internal/apps/pbzip2 produced no nondet finding; got %+v", diags)
	}
}
