package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExplainFoundFailures runs explain over the files ftfuzz saves for a
// found failure and compares its report with the pinned one beside them
// (<name>.out; `go run ./cmd/ftdiag explain <name>.json > <name>.out`
// re-pins it): seed3-41 is a hang — an app main parked on a condition
// variable nobody signals, on both replicas, its slice the backup replaying
// the primary's sections — and seed9-4 a never-failed run that panicked at
// boot. A missing or malformed file exits 2, naming it.
func TestExplainFoundFailures(t *testing.T) {
	for _, name := range []string{"seed3-41", "seed9-4"} {
		t.Run(name, func(t *testing.T) {
			status, stdout, stderr := ftdiag("explain", filepath.Join("testdata", "explain", name+".json"))
			if status != 0 {
				t.Fatalf("exit status %d, want 0\nstderr:\n%s", status, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "explain", name+".out"))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("explain printed\n%s\nwant\n%s", stdout, want)
			}
		})
	}
	if status, stdout, _ := ftdiag("explain", filepath.Join("testdata", "explain", "seed3-41.json")); status != 0 ||
		!strings.Contains(stdout, "first violated invariant: hang at 464.87µs: an app main has not returned\n\tstuck primary/stuck.5: cond 2\n") {
		t.Errorf("the hang's report does not name its stuck processes:\n%s", stdout)
	}

	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bad := write("bad.json", "{\"Seed\": 1,")
	noFinding := write("nofinding.json", "{}")
	write("empty.json", "{}")
	write("empty.finding.txt", "\n")
	write("noflight.json", "{}")
	write("noflight.finding.txt", "hang at 1s: an app main has not returned\n")
	write("badflight.json", "{}")
	write("badflight.finding.txt", "hang at 1s: an app main has not returned\n")
	write("badflight.flight.jsonl", "{\"order\": \n")
	for _, tc := range []struct {
		name string
		args []string
		err  string // a substring of stderr
	}{
		{"missing scenario", []string{"explain", filepath.Join(dir, "no-such.json")}, "no-such.json"},
		{"not a scenario", []string{"explain", filepath.Join(dir, "no-such.txt")}, "ends in .json"},
		{"malformed scenario", []string{"explain", bad}, "bad.json"},
		{"missing finding", []string{"explain", noFinding}, "nofinding.finding.txt"},
		{"empty finding", []string{"explain", filepath.Join(dir, "empty.json")}, "names no violated invariant"},
		{"missing flight dump", []string{"explain", filepath.Join(dir, "noflight.json")}, "noflight.flight.jsonl"},
		{"malformed flight dump", []string{"explain", filepath.Join(dir, "badflight.json")}, "jsonl line 1"},
		{"no file", []string{"explain"}, "exactly one found scenario"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if status, _, stderr := ftdiag(tc.args...); status != 2 || !strings.Contains(stderr, tc.err) {
				t.Errorf("exit status %d, stderr %q; want 2 naming %q", status, stderr, tc.err)
			}
		})
	}
}
