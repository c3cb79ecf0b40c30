package ftvet_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis/ftvet"
	"repro/internal/analysis/nondet"
)

// TestRepoClean runs nondet over the repository itself, so a regression
// that reintroduces a nondeterminism source fails `go test` as well as
// `make lint`. It doubles as the checker's runtime budget: load + full
// interprocedural check must stay under 60s so the fixpoint engine cannot
// quietly regress CI.
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
	diags := nondet.Check(loader.Fset, pkgs)
	elapsed := time.Since(start)
	t.Logf("load + scan of %d packages: %v", len(pkgs), elapsed.Round(time.Millisecond))
	if elapsed > 60*time.Second {
		t.Errorf("full-repo scan took %v, over the 60s runtime budget", elapsed)
	}
	for _, d := range diags {
		p := loader.Fset.Position(d.Pos)
		t.Errorf("%s:%d:%d: %s [%s]", p.Filename, p.Line, p.Column, d.Message, d.Rule)
	}
}

// TestNondetCatchesPlantedClock proves the acceptance criterion that a
// time.Now() planted in a replicated app package is caught: it builds a
// scratch module whose only file mirrors internal/apps/pbzip2 and checks
// it.
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
	diags := nondet.Check(loader.Fset, pkgs)
	found := false
	for _, d := range diags {
		if d.Rule == nondet.Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted time.Now() in internal/apps/pbzip2 produced no nondet finding; got %+v", diags)
	}
}
