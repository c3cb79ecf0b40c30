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
