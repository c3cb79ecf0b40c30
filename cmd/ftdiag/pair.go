package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// pairDir holds the parent checkouts and the binaries cmdPair builds.
const pairDir = ".bench_build/pair"

// cmdPair compares the host cost of the tree with that of revision rev
// (make pair): it extracts rev under .bench_build/pair with git archive,
// builds a main package at both, and runs each workload n times on each
// side, alternating which side runs first. With no package it builds the
// benchmark harness and runs its four workloads at seed 1, 10 s, --trace 0;
// with one, it runs that package once per pair with the arguments that
// follow it. Each run's metrics are its CPU time (the child's rusage) and
// every metric of its last output line, when that is the harness's JSON.
func cmdPair(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("pair", stderr)
	n := fs.Int("n", 10, "pairs of runs per workload")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() < 1 || *n < 1 {
		return fail(stderr, errors.New("pair wants a revision and at least one pair"))
	}
	pkg, workloads := "./benchmark", [][]string{}
	if fs.NArg() > 1 {
		pkg, workloads = fs.Arg(1), [][]string{fs.Args()[2:]}
	} else {
		for _, w := range []string{"web-short", "compress", "kv-mixed-n3", "stream-failover"} {
			workloads = append(workloads, []string{"--workload", w, "--seed", "1", "--seconds", "10", "--trace", "0"})
		}
	}
	parent, err := checkout(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	dirs := [2]string{parent, "."}
	var bins [2]string
	for i, name := range []string{filepath.Base(parent), "change"} {
		if bins[i], err = build(dirs[i], pkg, name); err != nil {
			return fail(stderr, err)
		}
	}
	fmt.Fprintf(stdout, "pair: %s at %s against the tree, %d alternating pairs per workload\n", pkg, fs.Arg(0), *n)
	for _, args := range workloads {
		var runs [2][]map[string]float64
		for i := range *n {
			for k := range 2 {
				side := (i + k) % 2 // the parent runs first in even pairs
				m, err := runOnce(dirs[side], bins[side], args)
				if err != nil {
					return fail(stderr, err)
				}
				runs[side] = append(runs[side], m)
			}
		}
		fmt.Fprintf(stdout, "\n%s %s\n", pkg, strings.Join(args, " "))
		pairReport(stdout, runs[0], runs[1])
	}
	return 0
}

// checkout extracts rev under pairDir, once per commit, and returns the
// directory. It is a plain export (git archive), so it leaves nothing in
// the repository's own git state.
func checkout(rev string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("revision %q: %v", rev, err)
	}
	sha := strings.TrimSpace(string(out))
	dir := filepath.Join(pairDir, sha[:12])
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", sha, tmp)
	if out, err := archive.CombinedOutput(); err != nil {
		return "", fmt.Errorf("extracting %s: %v\n%s", rev, err, out)
	}
	return dir, os.Rename(tmp, dir)
}

// build compiles pkg in dir, as benchmark/run.sh does, into pairDir/bin.
func build(dir, pkg, name string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(pairDir, "bin", name))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local", "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s in %s: %v\n%s", pkg, dir, err, out)
	}
	return bin, nil
}

// runOnce runs bin in dir and returns its metrics: cpu_s, the child's user
// plus system time, and each metric of a last line like the harness's.
func runOnce(dir, bin string, args []string) (map[string]float64, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s in %s: %v\n%s", bin, strings.Join(args, " "), dir, err, errOut.Bytes())
	}
	ps := cmd.ProcessState
	m := map[string]float64{"cpu_s": (ps.UserTime() + ps.SystemTime()).Seconds()}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Metrics map[string]struct{ Value float64 }
	}
	if json.Unmarshal([]byte(lines[len(lines)-1]), &last) == nil {
		for name, v := range last.Metrics {
			m[name] = v.Value
		}
	}
	return m, nil
}

// pairReport prints one row per metric: each side's median and quartiles,
// the pairs in which the change read lower and higher, the Mann–Whitney
// p-value, the smallest effect the run could detect (the parent's
// interquartile range, relative to its median) and the verdict of the
// claim rule: "lower" or "higher" when the change wins at least nine
// tenths of the pairs and its median moved by more than that range.
func pairReport(w io.Writer, parent, change []map[string]float64) {
	var names []string
	for name := range parent[0] {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "  %-24s %-36s %-36s %7s %9s %9s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "lo/hi", "MW p", "detect", "verdict")
	for _, name := range names {
		a, b := column(parent, name), column(change, name)
		pq1, pm, pq3 := quartiles(a)
		cq1, cm, cq3 := quartiles(b)
		lo, hi := wins(a, b)
		verdict := "-"
		switch {
		case lo+hi == 0:
			verdict = "same"
		case 10*lo >= 9*len(a) && pm-cm > pq3-pq1:
			verdict = "lower"
		case 10*hi >= 9*len(a) && cm-pm > pq3-pq1:
			verdict = "higher"
		}
		fmt.Fprintf(w, "  %-24s %-36s %-36s %3d/%-3d %9.2g %8.3g%%  %s\n", name,
			fmt.Sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3), fmt.Sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3),
			lo, hi, mannWhitney(a, b), 100*(pq3-pq1)/math.Abs(pm), verdict)
	}
}

func column(runs []map[string]float64, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r[name]
	}
	return xs
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// wins counts the pairs (a[i], b[i]) in which b is lower and in which it is
// higher; ties count for neither.
func wins(a, b []float64) (lower, higher int) {
	for i := range a {
		switch {
		case b[i] < a[i]:
			lower++
		case b[i] > a[i]:
			higher++
		}
	}
	return lower, higher
}

// mannWhitney is the two-sided p-value of the Mann–Whitney U test that a
// and b are drawn from one distribution, by the normal approximation with
// the tie and continuity corrections; 1 when every value ties.
func mannWhitney(a, b []float64) float64 {
	type obs struct {
		x     float64
		fromA bool
	}
	var all []obs
	for _, x := range a {
		all = append(all, obs{x, true})
	}
	for _, x := range b {
		all = append(all, obs{x, false})
	}
	slices.SortFunc(all, func(p, q obs) int { return cmp.Compare(p.x, q.x) })
	n1, n2, n := float64(len(a)), float64(len(b)), float64(len(all))
	var rankA, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].x == all[i].x {
			j++
		}
		rank, t := float64(i+j+1)/2, float64(j-i) // ranks i+1..j share their mean
		for _, o := range all[i:j] {
			if o.fromA {
				rankA += rank
			}
		}
		ties += t*t*t - t
		i = j
	}
	u := rankA - n1*(n1+1)/2
	sd := math.Sqrt(n1 * n2 / 12 * (n + 1 - ties/(n*(n-1))))
	if sd == 0 {
		return 1
	}
	z := (math.Abs(u-n1*n2/2) - 0.5) / sd
	return math.Min(1, math.Erfc(math.Max(z, 0)/math.Sqrt2))
}
