package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// plantsDir holds the tree the plants are applied to and one copy of it
// per plant.
const plantsDir = ".bench_build/plants"

// finderKinds are the matrix's columns, in order: what may find a plant.
var finderKinds = []string{"ftvet", "test", "golden", "chaos", "ftfuzz"}

// plant is one re-planted bug and its row of DESIGN.md §10's table: a
// patch whose header gives its title with its bug class and path, the time
// its finders may take together, each finder — a kind and its arguments,
// then optionally a mark, B (it saw the bug itself) or n (only a pinned
// number moved), and a note — and, where the row gives one, the reason a
// kind names no finder:
//
//	# `Mutex.Lock` parks inside its section (park inside a section, hot path)
//	# budget 5m
//	# find ftvet [<mark>] [<note>]
//	# find test <package> <go test -run pattern> [<mark>] [<note>]
//	# find golden …
//	# find chaos <preset> …
//	# find ftfuzz <seed> <scenarios> …
//	# none <kind> <reason>
//
// Everything from the first line that is not a comment on is the diff.
type plant struct {
	name, title, class, path, patch string
	budget                          time.Duration
	finds                           []finder
	none                            map[string]string // why a kind names no finder, by kind
}

// finder is one check a plant credits: its kind and arguments, then its
// mark, B or n, and its note.
type finder struct {
	args       []string
	mark, note string
}

// titleRE splits a plant's title from its bug class and path.
var titleRE = regexp.MustCompile(`^(.+) \(([^,()]+), ((?:hot|cold) path[^()]*)\)$`)

// readPlant reads a plant's header from its patch file.
func readPlant(path string) (plant, error) {
	f, err := os.Open(path)
	if err != nil {
		return plant{}, err
	}
	defer f.Close()
	p := plant{name: strings.TrimSuffix(filepath.Base(path), ".patch"), patch: path, none: map[string]string{}}
	args := map[string]int{"ftvet": 0, "test": 2, "golden": 0, "chaos": 1, "ftfuzz": 2}
	for sc := bufio.NewScanner(f); sc.Scan() && strings.HasPrefix(sc.Text(), "# "); {
		line := strings.TrimPrefix(sc.Text(), "# ")
		switch word, rest, _ := strings.Cut(line, " "); {
		case p.title == "":
			m := titleRE.FindStringSubmatch(line)
			if m == nil {
				return plant{}, fmt.Errorf("%s: title %q does not end in (<bug class>, <hot or cold> path)", path, line)
			}
			p.title, p.class, p.path = m[1], m[2], m[3]
		case word == "budget":
			if p.budget, err = time.ParseDuration(rest); err != nil {
				return plant{}, fmt.Errorf("%s: %v", path, err)
			}
		case word == "find":
			fields := strings.Fields(rest)
			kind, _, _ := strings.Cut(rest, " ")
			n, ok := args[kind]
			if !ok || len(fields) <= n {
				return plant{}, fmt.Errorf("%s: finder %q is none of ftvet, test <pkg> <pattern>, golden, chaos <preset>, ftfuzz <seed> <n>", path, rest)
			}
			find, tail := finder{args: fields[:n+1]}, fields[n+1:]
			if len(tail) > 0 && (tail[0] == "B" || tail[0] == "n") {
				find.mark, tail = tail[0], tail[1:]
			}
			find.note = strings.Join(tail, " ")
			p.finds = append(p.finds, find)
		case word == "none":
			kind, reason, _ := strings.Cut(rest, " ")
			if _, ok := args[kind]; !ok || reason == "" {
				return plant{}, fmt.Errorf("%s: none %q wants a finder kind and a reason", path, rest)
			}
			p.none[kind] = reason
		default:
			return plant{}, fmt.Errorf("%s: header line %q", path, line)
		}
	}
	if p.budget <= 0 || len(p.finds) == 0 {
		return plant{}, fmt.Errorf("%s: a plant needs a budget and at least one finder", path)
	}
	for _, find := range p.finds {
		if p.none[find.args[0]] != "" {
			return plant{}, fmt.Errorf("%s: a %s finder is named and its kind said to name none", path, find.args[0])
		}
	}
	return p, nil
}

// cmdPlants (make plants) re-plants each bug its arguments name — patch
// files, or directories of them (plantPaths) — into a copy of HEAD,
// extracted under .bench_build/plants with git archive, builds it, runs the
// finders its header names within its budget and prints the found/missed
// matrix, one column per kind of finder. A finder finds its plant by
// failing: a test, ftvet or the golden check fails, ftfuzz fails a
// scenario, a chaos preset fails or prints other than on the unplanted
// tree. It exits 1 when a patch no longer applies or builds, or when a
// finder misses.
func cmdPlants(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("plants", stderr)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	paths := plantPaths(fs.Args())
	if len(paths) == 0 {
		return fail(stderr, errors.New("plants wants plant patches, or directories of them"))
	}
	var plants []plant
	for _, path := range paths {
		p, err := readPlant(path)
		if err != nil {
			return fail(stderr, err)
		}
		plants = append(plants, p)
	}
	base, err := checkout(plantsDir, "HEAD")
	if err != nil {
		return fail(stderr, err)
	}
	start, status, missed := time.Now(), 0, []string{}
	fmt.Fprintf(stdout, "plants: %d re-planted into HEAD (%s)\n\n%-32s", len(plants), base, "plant")
	for _, kind := range finderKinds {
		fmt.Fprintf(stdout, " %-10s", kind)
	}
	fmt.Fprintln(stdout, " time")
	for _, p := range plants {
		t0 := time.Now()
		found, err := replant(base, p)
		fmt.Fprintf(stdout, "%-32s", p.name)
		if err != nil {
			status = 1
			fmt.Fprintf(stdout, " %s\n", strings.ReplaceAll(err.Error(), "\n", "; "))
			continue
		}
		for _, kind := range finderKinds {
			var col []bool
			for i, find := range p.finds {
				if find.args[0] == kind {
					if col = append(col, found[i]); !found[i] {
						missed = append(missed, p.name+": "+strings.Join(find.args, " "))
					}
				}
			}
			fmt.Fprintf(stdout, " %-10s", cell(col))
		}
		fmt.Fprintf(stdout, " %v\n", time.Since(t0).Round(time.Second))
	}
	for _, m := range missed {
		fmt.Fprintln(stdout, "missed:", m)
	}
	fmt.Fprintf(stdout, "\n%d plants in %v\n", len(plants), time.Since(start).Round(time.Second))
	if len(missed) > 0 {
		status = 1
	}
	return status
}

// plantPaths returns the plant patches args name, in order: each argument
// that is a directory stands for its *.patch files, any other for itself.
// CI passes a slice of testdata/plants/*.patch, make plants all of it.
func plantPaths(args []string) []string {
	var paths []string
	for _, arg := range args {
		if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
			in, _ := filepath.Glob(filepath.Join(arg, "*.patch"))
			paths = append(paths, in...)
			continue
		}
		paths = append(paths, arg)
	}
	return paths
}

// cell renders one column of a plant's row: "-" where no finder of the kind
// is named, else "found" or "MISSED", with the count when there are several.
func cell(found []bool) string {
	n := 0
	for _, f := range found {
		if f {
			n++
		}
	}
	word := map[bool]string{true: "found", false: "MISSED"}[n == len(found)]
	switch len(found) {
	case 0:
		return "-"
	case 1:
		return word
	}
	return fmt.Sprintf("%s %d/%d", word, n, len(found))
}

// replant copies the base tree, applies the plant and builds it, then runs
// each finder in turn, until the budget runs out, and reports which found
// the plant; a finder the budget cut off did not.
func replant(base string, p plant) ([]bool, error) {
	dir := filepath.Join(plantsDir, "run", p.name)
	patch, err := filepath.Abs(p.patch)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, err
	}
	if out, err := exec.Command("cp", "-a", base, dir).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("copying the tree: %v: %s", err, out)
	}
	if out, err := exec.Command("patch", "-p1", "-s", "-d", dir, "-i", patch).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("does not apply: %s", bytes.TrimSpace(out))
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.budget)
	defer cancel()
	if _, err := goIn(ctx, dir, "build", "./..."); err != nil {
		return nil, fmt.Errorf("does not build: %v", err)
	}
	found := make([]bool, len(p.finds))
	for i, find := range p.finds {
		var err error
		switch arg := find.args[1:]; find.args[0] {
		case "ftvet":
			_, err = goIn(ctx, dir, "run", "./cmd/ftvet", "./...")
		case "test":
			_, err = goIn(ctx, dir, "test", "-count=1", "-run", arg[1], arg[0])
		case "golden":
			if _, err = goIn(ctx, dir, "run", "./cmd/ftsim", "-scenario", "scenarios/golden.json", "-trace", "golden-check.json"); err == nil {
				_, err = goIn(ctx, dir, "run", "./cmd/ftdiag", "windows", "golden-check.json", "goldens/ftsim-trace.windows")
			}
		case "chaos":
			scenario := []string{"run", "./cmd/ftsim", "-scenario", "scenarios/" + arg[0] + ".json"}
			var want, got string
			if want, err = goIn(ctx, base, scenario...); err != nil {
				return nil, fmt.Errorf("the unplanted tree fails chaos %s: %v", arg[0], err)
			}
			if got, err = goIn(ctx, dir, scenario...); err == nil && got != want {
				err = errors.New("stdout differs from the unplanted tree's")
			}
		case "ftfuzz":
			_, err = goIn(ctx, dir, "run", "./cmd/ftfuzz", "-seed", arg[0], "-n", arg[1], "-found", "ftfuzz-found")
		}
		found[i] = err != nil && ctx.Err() == nil
	}
	return found, nil
}

// goIn runs the go command in dir and returns its stdout. The context's
// end kills it with every process it started.
func goIn(ctx context.Context, dir string, args ...string) (string, error) {
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &errOut
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	if err := cmd.Run(); err != nil {
		return out.String(), fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	return out.String(), nil
}
