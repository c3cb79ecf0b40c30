package main

import (
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// readPlants reads every plant under testdata/plants.
func readPlants(t *testing.T) []plant {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/plants/*.patch")
	if err != nil || len(paths) != 34 {
		t.Fatalf("plants %v (%v), want DESIGN.md §10's 34", paths, err)
	}
	var plants []plant
	for _, path := range paths {
		p, err := readPlant(path)
		if err != nil {
			t.Fatal(err)
		}
		plants = append(plants, p)
	}
	return plants
}

// TestPlantsApplyToTheTree: every plant under testdata/plants reads, names
// a finder and a budget, and applies to the tree as it stands (a dry run:
// nothing is written), so a change that moves a planted line fails here
// before make plants is run.
func TestPlantsApplyToTheTree(t *testing.T) {
	for _, p := range readPlants(t) {
		abs, _ := filepath.Abs(p.patch)
		if out, err := exec.Command("patch", "-p1", "--dry-run", "-s", "-d", "../..", "-i", abs).CombinedOutput(); err != nil {
			t.Errorf("%s does not apply: %v\n%s", p.name, err, out)
		}
	}
}

// TestPlantPathsSelectTheirFiles: plants runs exactly the patches its
// arguments name — a file list, as CI passes its slice of the plants — and a
// directory stands for every patch in it; a name that is no plant fails
// before anything is built.
func TestPlantPathsSelectTheirFiles(t *testing.T) {
	all, err := filepath.Glob("../../testdata/plants/*.patch")
	if err != nil || len(all) < 10 {
		t.Fatalf("plants %v (%v)", all, err)
	}
	slice := []string{all[9], all[1], all[5]}
	if got := plantPaths(slice); !reflect.DeepEqual(got, slice) {
		t.Errorf("plantPaths(%v) = %v, want the files as given", slice, got)
	}
	if got := plantPaths([]string{"../../testdata/plants", all[0]}); !reflect.DeepEqual(got, append(all[:len(all):len(all)], all[0])) {
		t.Errorf("plantPaths(dir, %s) = %v, want every plant, then the file", all[0], got)
	}
	var out, errOut strings.Builder
	if code := cmdPlants([]string{all[0], filepath.Join(t.TempDir(), "none.patch")}, &out, &errOut); code == 0 || !strings.Contains(errOut.String(), "none.patch") {
		t.Errorf("plants with a missing patch exited %d, printing %q, want an error naming it", code, errOut.String())
	}
}

// TestPlantTableIsRendered: DESIGN.md §10's table, the block tagged
// <!-- plants -->, is the one the plant headers render (plantTable), so no
// mark or finder in it is typed by hand.
func TestPlantTableIsRendered(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	want := plantTable(readPlants(t))
	if m := regexp.MustCompile("(?m)^<!-- plants -->\n((?:\\|.*\n)*)").FindSubmatch(doc); m == nil || string(m[1]) != want {
		t.Errorf("DESIGN.md's table tagged <!-- plants --> is not the one the plant headers render:\n%s", want)
	}
}

// plantTable renders the plants as DESIGN.md §10's table: a row a plant,
// in the order of their bug classes, and a column for each kind of finder.
func plantTable(plants []plant) string {
	slices.SortStableFunc(plants, func(a, b plant) int { return cmp.Compare(a.class, b.class) })
	var b strings.Builder
	b.WriteString("| plant | class | path | " + strings.Join(finderKinds, " | ") + " |\n|---|---|---|---|---|---|---|---|\n")
	for _, p := range plants {
		fmt.Fprintf(&b, "| %s | %s | %s |", p.title, p.class, strings.Replace(p.path, " path", "", 1))
		for _, kind := range finderKinds {
			fmt.Fprintf(&b, " %s |", tableCell(p, kind))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// tableCell renders a plant's cell for one kind of finder: its finders, a run
// of them with one mark and note sharing it, or a dash and the reason the
// kind names none.
func tableCell(p plant, kind string) string {
	type run struct {
		labels     []string
		mark, note string
	}
	var runs []run
	for _, f := range p.finds {
		if f.args[0] != kind {
			continue
		}
		var label string
		switch {
		case kind == "test" && f.args[2] == ".":
			label = "the " + path.Base(f.args[1]) + " tests"
		case kind == "test":
			label = "`" + strings.NewReplacer("$/^", "/", "^", "", "$", "").Replace(f.args[2]) + "`"
		case kind == "chaos":
			label = "`" + f.args[1] + "`"
		}
		if n := len(runs); n > 0 && runs[n-1].mark == f.mark && runs[n-1].note == f.note && label != "" {
			runs[n-1].labels = append(runs[n-1].labels, label)
			continue
		}
		runs = append(runs, run{[]string{label}, f.mark, f.note})
	}
	if len(runs) == 0 {
		return strings.TrimSuffix("— ("+p.none[kind]+")", " ()")
	}
	var cell []string
	for _, r := range runs {
		parts := []string{strings.Join(r.labels, ", "), map[string]string{"B": "**B**", "n": "*n*"}[r.mark], r.note}
		if r.note != "" && parts[0] != "" {
			parts[2] = "(" + r.note + ")"
		}
		cell = append(cell, strings.Join(slices.DeleteFunc(parts, func(s string) bool { return s == "" }), " "))
	}
	return strings.Join(cell, "; ")
}

// TestReadPlant: a header is the title with its bug class and path, a
// budget, one line a finder, each a kind with its arguments and optionally
// a mark and a note, and the reason a kind names no finder; anything else
// is an error naming the file.
func TestReadPlant(t *testing.T) {
	dir := t.TempDir()
	read := func(header string) (plant, error) {
		path := filepath.Join(dir, "p.patch")
		if err := os.WriteFile(path, []byte(header+"diff --git a/x b/x\n# not a header line\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return readPlant(path)
	}
	p, err := read("# a bug (a class, cold path: rejoin)\n# budget 90s\n# find ftvet nondet\n# find test ./internal/core ^TestX$/^y$ B wrong bytes\n# find golden n\n# find chaos hb-storm\n# find ftfuzz 1 13 B #12\n")
	want := plant{name: "p", title: "a bug", class: "a class", path: "cold path: rejoin", patch: filepath.Join(dir, "p.patch"), budget: 90 * time.Second,
		finds: []finder{{[]string{"ftvet"}, "", "nondet"}, {[]string{"test", "./internal/core", "^TestX$/^y$"}, "B", "wrong bytes"},
			{[]string{"golden"}, "n", ""}, {[]string{"chaos", "hb-storm"}, "", ""}, {[]string{"ftfuzz", "1", "13"}, "B", "#12"}},
		none: map[string]string{}}
	if err != nil || !reflect.DeepEqual(p, want) {
		t.Errorf("read %+v (%v), want %+v", p, err, want)
	}
	if p, err := read("# a bug (a class, hot path)\n# budget 1m\n# find ftvet\n# none ftfuzz one client\n"); err != nil || p.none["ftfuzz"] != "one client" {
		t.Errorf("read %+v (%v), want ftfuzz's reason", p, err)
	}
	for _, header := range []string{
		"# a bug\n# budget 1m\n# find ftvet\n",                                       // no class and path
		"# a bug (a class, hot path)\n# find ftvet\n",                                // no budget
		"# a bug (a class, hot path)\n# budget 1m\n",                                 // no finder
		"# a bug (a class, hot path)\n# budget soon\n# find ftvet\n",                 // a malformed budget
		"# a bug (a class, hot path)\n# budget 1m\n# find vet\n",                     // an unknown finder
		"# a bug (a class, hot path)\n# budget 1m\n# find test ./internal\n",         // a test without its pattern
		"# a bug (a class, hot path)\n# budget 1m\n# find\n",                         // an empty finder
		"# a bug (a class, hot path)\n# budget 1m\n# find ftvet\n# path hot\n",       // an unknown header line
		"# a bug (a class, hot path)\n# budget 1m\n# find ftvet\n# none vet why\n",   // a reason for no kind
		"# a bug (a class, hot path)\n# budget 1m\n# find ftvet\n# none ftvet why\n", // a reason for a kind it names
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
