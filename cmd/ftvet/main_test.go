package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// module lays out a scratch module named repro, so that its
// internal/apps packages are replicated code, and returns its root.
func module(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.23\n"
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const plantedClock = `package kv

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

const cleanApp = `package kv

func Sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}
`

// vet runs the command in dir and returns its exit status and output.
func vet(dir string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(dir, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestPlantedClockFails(t *testing.T) {
	root := module(t, map[string]string{"internal/apps/kv/kv.go": plantedClock})
	code, out, errs := vet(filepath.Join(root, "internal"), "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errs)
	}
	want := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(filepath.Join(root, "internal", "apps", "kv", "kv.go")) + `:5:29: time\.Now in replicated code .* \[nondet\]$`)
	if !want.MatchString(out) {
		t.Errorf("stdout does not name the planted call as file:line:col … [nondet]:\n%s", out)
	}
}

func TestCleanModulePasses(t *testing.T) {
	root := module(t, map[string]string{"internal/apps/kv/kv.go": cleanApp})
	if code, out, errs := vet(root); code != 0 || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want 0 and nothing printed", code, out, errs)
	}
}

// TestSARIF checks the log names both rules and binds the finding to
// nondet's.
func TestSARIF(t *testing.T) {
	root := module(t, map[string]string{"internal/apps/kv/kv.go": plantedClock})
	code, out, _ := vet(root, "-format=sarif", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct{ ID string } `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string } `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with one", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if rules := r.Tool.Driver.Rules; len(rules) != 2 || rules[0].ID != "nondet" || rules[1].ID != "ftvet" {
		t.Errorf("rules = %+v, want nondet and ftvet", rules)
	}
	if len(r.Results) != 1 || r.Results[0].RuleID != "nondet" || r.Results[0].RuleIndex != 0 {
		t.Fatalf("results = %+v, want the one nondet finding", r.Results)
	}
	if uri := r.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/apps/kv/kv.go" {
		t.Errorf("artifact URI %q, want the module-relative path", uri)
	}
}

func TestUnknownFormat(t *testing.T) {
	root := module(t, map[string]string{"internal/apps/kv/kv.go": cleanApp})
	if code, out, _ := vet(root, "-format=xml"); code != 2 || out != "" {
		t.Errorf("exit %d, stdout %q; want 2 and nothing printed", code, out)
	}
}

func TestUnknownFlag(t *testing.T) {
	root := module(t, map[string]string{"internal/apps/kv/kv.go": cleanApp})
	if code, out, errs := vet(root, "-strict", "./..."); code != 2 || out != "" || !strings.Contains(errs, "-strict") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing printed and the flag named", code, out, errs)
	}
}
