package main

import (
	"fmt"
	"io"
	"os"
	"path"
	"slices"
	"strings"
)

// cmdReach lists what no run reached — every function a `go tool covdata
// func` listing reports at 0.0 %, then every package of the package list
// the listing never mentions, because no covered binary links it — and
// compares the list with the names pinned in a reach file, whose lines are
// "name keeper". Status 1 names each function or package that runs nowhere
// and is not pinned, and each pinned one that now runs.
func cmdReach(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		return fail(stderr, fmt.Errorf("reach wants a covdata func listing, a package list and a reach file, got %d files", len(args)))
	}
	var in [3]string
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return fail(stderr, err)
		}
		in[i] = string(b)
	}
	got := unreached(in[0], strings.Fields(in[1]))
	for _, name := range got {
		fmt.Fprintln(stdout, name)
	}
	if d := reachDiff(got, keepers(in[2])); len(d) > 0 {
		fmt.Fprintf(stdout, "%s differs from %s:\n%s", args[0], args[2], strings.Join(d, ""))
		return 1
	}
	return 0
}

// unreached is the list cmdReach prints. Names drop the module path:
// internal/hw/fault.go:*Machine.Inject, internal/analysis/nondet.
func unreached(listing string, pkgs []string) []string {
	const module = "repro/"
	var funcs []string
	linked := make(map[string]bool)
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasSuffix(f[0], ":") { // the total line
			continue
		}
		file, _, _ := strings.Cut(f[0], ":")
		linked[path.Dir(file)] = true
		if f[2] == "0.0%" {
			funcs = append(funcs, strings.TrimPrefix(file, module)+":"+f[1])
		}
	}
	slices.Sort(funcs)
	for _, p := range pkgs {
		if !linked[p] {
			funcs = append(funcs, strings.TrimPrefix(p, module))
		}
	}
	return slices.Compact(funcs)
}

// keepers reads a reach file: name → the test or tool that keeps it.
func keepers(reach string) map[string]string {
	k := make(map[string]string)
	for _, line := range strings.Split(reach, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0][0] != '#' {
			k[f[0]] = strings.Join(f[1:], " ")
		}
	}
	return k
}

// reachDiff is one line per name on only one side of got and pinned.
func reachDiff(got []string, pinned map[string]string) []string {
	var d []string
	for _, name := range got {
		if _, ok := pinned[name]; !ok {
			d = append(d, "  "+name+": reached by no run and not in the reach file\n")
		}
	}
	for name := range pinned {
		if !slices.Contains(got, name) {
			d = append(d, "  "+name+": in the reach file but a run reaches it now\n")
		}
	}
	slices.Sort(d)
	return d
}
