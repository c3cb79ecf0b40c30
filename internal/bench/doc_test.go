package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesTranscript: every table EXPERIMENTS.md shows —
// a fenced block tagged <!-- ftbench:<exp> --> — is a contiguous run of
// lines of that experiment's section of experiments_output.txt, the
// transcript `make experiments` regenerates and CI diffs. The prose can be
// wrong; the numbers it is about cannot be old. Every experiment has at
// least one such table.
func TestExperimentsDocMatchesTranscript(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	transcript, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]string) // title -> the lines under it
	for _, s := range strings.Split("\n"+string(transcript), "\n== ")[1:] {
		title, body, _ := strings.Cut(s, " ==\n")
		sections[title] = "\n" + body
	}
	quoted := make(map[string]int)
	tagged := regexp.MustCompile("(?m)^<!-- ftbench:(\\w+) -->\n```\n((?:.*\n)*?)```$")
	for _, m := range tagged.FindAllStringSubmatch(string(doc), -1) {
		e, ok := Lookup(m[1])
		if !ok {
			t.Errorf("table tagged ftbench:%s: no such experiment", m[1])
			continue
		}
		quoted[e.Name]++
		if m[2] == "" || !strings.Contains(sections[e.Title], "\n"+m[2]) {
			t.Errorf("table tagged ftbench:%s is not in the %q section of experiments_output.txt:\n%s", m[1], e.Title, m[2])
		}
	}
	tags := regexp.MustCompile("(?m)^<!-- ftbench:").FindAllString(string(doc), -1)
	if blocks := tagged.FindAllString(string(doc), -1); len(tags) != len(blocks) {
		t.Errorf("%d ftbench tags, but only %d are followed by a fenced block", len(tags), len(blocks))
	}
	for _, e := range Experiments {
		if quoted[e.Name] == 0 {
			t.Errorf("EXPERIMENTS.md quotes no table of %s", e.Name)
		}
		if _, ok := sections[e.Title]; !ok {
			t.Errorf("experiments_output.txt has no section %q", e.Title)
		}
	}
}

// TestDesignInventoryMatchesTree: DESIGN.md §3's table and internal/ name
// the same packages — every row is a directory, and every directory under
// internal/ has a row or, holding no package itself, each of its
// subdirectories does (internal/apps).
func TestDesignInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| \\d+ \\| `(internal/[\\w/]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
		if st, err := os.Stat("../../" + m[1]); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md §3 lists %s, which is not a directory", m[1])
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §3 holds no inventory rows")
	}
	var check func(dir string)
	check = func(dir string) {
		if rows[dir] {
			return
		}
		entries, err := os.ReadDir("../../" + dir)
		if err != nil {
			t.Fatal(err)
		}
		var subdirs []string
		for _, e := range entries {
			if e.IsDir() {
				subdirs = append(subdirs, dir+"/"+e.Name())
			} else if strings.HasSuffix(e.Name(), ".go") {
				subdirs = nil // a package of its own: its subdirectories' rows do not cover it
				break
			}
		}
		if len(subdirs) == 0 {
			t.Errorf("%s has no row in DESIGN.md §3", dir)
		}
		for _, sub := range subdirs {
			check(sub)
		}
	}
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			check("internal/" + e.Name())
		}
	}
}
