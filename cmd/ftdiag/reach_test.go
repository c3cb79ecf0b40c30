package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// reachListing is a `go tool covdata func` listing of two linked packages:
// one function ran, two never did.
const reachListing = `repro/internal/a/a.go:10:		Used			100.0%
repro/internal/a/a.go:20:		*T.Unused		0.0%
repro/internal/c/c.go:5:		helper			0.0%
total					(statements)		60.0%
`

// TestReachComparison: reach lists every 0 % function and every package
// the listing never mentions, and exits 0 only when that list is the
// reach file's: a new unreached function fails it, and so does a listed
// survivor that a run now reaches.
func TestReachComparison(t *testing.T) {
	pkgs := "repro/internal/a\nrepro/internal/b\nrepro/internal/c\n"
	want := []string{"internal/a/a.go:*T.Unused", "internal/c/c.go:helper", "internal/b"}
	if got := unreached(reachListing, strings.Fields(pkgs)); !slices.Equal(got, want) {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
	dir := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	listing, pkgList := write("func.txt", reachListing), write("pkgs.txt", pkgs)
	for _, tc := range []struct {
		name, reach string
		status      int
		out         string
	}{
		{"pinned", "# survivors\ninternal/a/a.go:*T.Unused TestA\ninternal/c/c.go:helper make reach\ninternal/b cmd/ftvet\n", 0, ""},
		{"new unreached function", "internal/a/a.go:*T.Unused TestA\ninternal/b cmd/ftvet\n", 1,
			"internal/c/c.go:helper: reached by no run and not in the reach file"},
		{"survivor now runs", "internal/a/a.go:Used TestA\ninternal/a/a.go:*T.Unused TestA\ninternal/c/c.go:helper TestC\ninternal/b cmd/ftvet\n", 1,
			"internal/a/a.go:Used: in the reach file but a run reaches it now"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := ftdiag("reach", listing, pkgList, write(tc.name, tc.reach))
			if status != tc.status || !strings.HasPrefix(stdout, strings.Join(want, "\n")+"\n") || !strings.Contains(stdout, tc.out) {
				t.Errorf("exit status %d, want %d with %q\nstdout:\n%s\nstderr:\n%s", status, tc.status, tc.out, stdout, stderr)
			}
		})
	}
}

// TestReachKeepersResolve: every survivor of goldens/reach.txt names what
// keeps it — a Test function in the tree, a make target, or a directory
// holding a main package (cmd/ftvet, benchmark, examples/...).
func TestReachKeepersResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	data, err := os.ReadFile(filepath.Join(root, "goldens", "reach.txt"))
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	tests := make(map[string]bool)
	testFunc, mainPkg := regexp.MustCompile(`(?m)^func (Test\w+)\(`), regexp.MustCompile(`(?m)^package main$`)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, build caches
		}
		if err != nil || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned := keepers(string(data))
	if len(pinned) == 0 {
		t.Fatal("goldens/reach.txt pins nothing")
	}
	for name, keeper := range pinned {
		f := strings.Fields(keeper)
		switch {
		case len(f) == 0:
			t.Errorf("%s names no keeper", name)
		case strings.HasPrefix(f[0], "Test"):
			if !tests[f[0]] {
				t.Errorf("%s: keeper %s is no Test function in the tree", name, f[0])
			}
		case f[0] == "make":
			if len(f) < 2 || !regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(f[1])+`:`).Match(makefile) {
				t.Errorf("%s: keeper %q is no make target", name, keeper)
			}
		default:
			if src, err := os.ReadFile(filepath.Join(root, f[0], "main.go")); err != nil || !mainPkg.Match(src) {
				t.Errorf("%s: keeper %s is no main package directory", name, f[0])
			}
		}
	}
}
