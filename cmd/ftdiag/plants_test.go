package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPlantsApplyToTheTree: every plant under testdata/plants reads, names
// a finder and a budget, and applies to the tree as it stands (a dry run:
// nothing is written), so a change that moves a planted line fails here
// before make plants is run.
func TestPlantsApplyToTheTree(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/plants/*.patch")
	if err != nil || len(paths) != 21 {
		t.Fatalf("plants %v (%v), want DESIGN.md §10's 21", paths, err)
	}
	for _, path := range paths {
		p, err := readPlant(path)
		if err != nil {
			t.Error(err)
			continue
		}
		abs, _ := filepath.Abs(path)
		if out, err := exec.Command("patch", "-p1", "--dry-run", "-s", "-d", "../..", "-i", abs).CombinedOutput(); err != nil {
			t.Errorf("%s does not apply: %v\n%s", p.name, err, out)
		}
	}
}

// TestReadPlant: a header is the title, a budget and one line a finder,
// each a kind with its arguments; anything else is an error naming the
// file.
func TestReadPlant(t *testing.T) {
	dir := t.TempDir()
	read := func(header string) (plant, error) {
		path := filepath.Join(dir, "p.patch")
		if err := os.WriteFile(path, []byte(header+"diff --git a/x b/x\n# not a header line\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return readPlant(path)
	}
	p, err := read("# a bug\n# budget 90s\n# find ftvet\n# find test ./internal/core ^TestX$/^y$\n# find golden\n# find chaos hb-storm\n# find ftfuzz 1 13\n")
	want := plant{name: "p", title: "a bug", patch: filepath.Join(dir, "p.patch"), budget: 90 * time.Second,
		finds: [][]string{{"ftvet"}, {"test", "./internal/core", "^TestX$/^y$"}, {"golden"}, {"chaos", "hb-storm"}, {"ftfuzz", "1", "13"}}}
	if err != nil || !reflect.DeepEqual(p, want) {
		t.Errorf("read %+v (%v), want %+v", p, err, want)
	}
	for _, header := range []string{
		"# a bug\n# find ftvet\n",                          // no budget
		"# a bug\n# budget 1m\n",                           // no finder
		"# a bug\n# budget soon\n# find ftvet\n",           // a malformed budget
		"# a bug\n# budget 1m\n# find vet\n",               // an unknown finder
		"# a bug\n# budget 1m\n# find test ./internal\n",   // a test without its pattern
		"# a bug\n# budget 1m\n# find\n",                   // an empty finder
		"# a bug\n# budget 1m\n# find ftvet\n# path hot\n", // an unknown header line
	} {
		if _, err := read(header); err == nil || !strings.Contains(err.Error(), "p.patch") {
			t.Errorf("header %q read (%v), want an error naming the file", header, err)
		}
	}
}

// TestCell: a column reads "-" where no finder of its kind is named, and
// otherwise whether every one found the plant, counting them when there
// are several.
func TestCell(t *testing.T) {
	for _, c := range []struct {
		found []bool
		want  string
	}{
		{nil, "-"},
		{[]bool{true}, "found"},
		{[]bool{false}, "MISSED"},
		{[]bool{true, true, true}, "found 3/3"},
		{[]bool{true, false, true}, "MISSED 2/3"},
	} {
		if got := cell(c.found); got != c.want {
			t.Errorf("cell(%v) = %q, want %q", c.found, got, c.want)
		}
	}
}
