package nondet_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nondet"
)

func TestNondet(t *testing.T) {
	td, err := filepath.Abs("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, td,
		"repro/internal/apps/nondetfix", // positive: replicated package
		"repro/internal/notrep",         // negative: outside the replicated set
		"repro/internal/obstrace",       // positive: wall clock smuggled into obs attributes
		"repro/internal/causalfix",      // positive: wall clock smuggled into a causal diagnosis
		"repro/internal/timeutil",       // helper package: sources legal here, summaries feed interfix
		"repro/internal/apps/interfix",  // positive: interprocedural taint through timeutil helpers
		"repro/internal/tcprep",         // positive: the epoch digest's send cursors built in map order
	)
}

func TestReplicated(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/apps/pbzip2":    true,
		"repro/internal/apps/memcached": true,
		"repro/internal/pthread":        true,
		"repro/internal/tcprep":         true,
		"repro/internal/bench":          false,
		"repro/internal/sim":            false,
		"repro/internal/pthreadx":       false, // prefix must match a whole path element
	} {
		if got := nondet.Replicated(path); got != want {
			t.Errorf("Replicated(%q) = %v, want %v", path, got, want)
		}
	}
}
