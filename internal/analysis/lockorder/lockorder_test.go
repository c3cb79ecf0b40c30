package lockorder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	td, err := filepath.Abs("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, td, lockorder.Analyzer, "repro/internal/lockfix")
}

// TestLockOrderInterprocedural covers the flow-summary layer: a cycle
// whose halves live in different functions, one behind interface
// dispatch.
func TestLockOrderInterprocedural(t *testing.T) {
	td, err := filepath.Abs("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, td, lockorder.Analyzer, "repro/internal/lockiface")
}
