// Command ftvet is the FT-Linux static checker: it runs the one rule no
// runtime check enforces — nondet: no wall clock, pid, process-seeded rand
// or map-iteration order reaching replicated code, directly or through
// helpers — over the module and exits non-zero on findings, mirroring
// `go vet` usage:
//
//	go run ./cmd/ftvet ./...             # whole module (the default)
//	go run ./cmd/ftvet ./internal/tcprep ./internal/replication
//	go run ./cmd/ftvet -format=sarif ./... > ftvet.sarif
//	go run ./cmd/ftvet -callgraph ./internal/replication
//	go run ./cmd/ftvet -summary ./internal/shm
//
// Findings print in the canonical file:line:col format (or as SARIF
// 2.1.0 with -format=sarif, for CI annotation upload). The
// -callgraph and -summary flags dump the interprocedural engine's
// resolved call edges and per-function summaries instead of
// checking — the artifacts for debugging a surprising multi-hop
// trace. Suppressions use the audited escape hatch documented in
// internal/analysis/ftvet:
//
//	//ftvet:allow nondet: <justification>
//
// The checker (internal/analysis/nondet) is built on the in-repo loader
// (internal/analysis/ftvet) rather than golang.org/x/tools/go/analysis,
// because the module has no dependencies; for the same reason ftvet runs
// as a standalone command instead of a -vettool plugin. Exit status: 0
// clean, 1 findings, 2 a usage or load error.
//
// The other FT rules — a deterministic section neither parks nor nests,
// the lock order has no cycle (pthread.LockOrderError), a waiter is armed
// only after a flush, truncation waits for a verified boundary — are
// enforced at run time; DESIGN.md §10 records the mutation audit that
// showed which check catches what.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
	"repro/internal/analysis/nondet"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftvet:", err)
		os.Exit(2)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is ftvet with its arguments, in the module enclosing dir; it returns
// the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ftvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	format := flags.String("format", "text", "output format: text or sarif")
	callgraph := flags.Bool("callgraph", false, "dump the resolved call graph instead of checking")
	summary := flags.Bool("summary", false, "dump per-function taint summaries instead of checking")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "ftvet: unknown format %q (want text or sarif)\n", *format)
		return 2
	}

	root, module, err := findModule(dir)
	if err != nil {
		fmt.Fprintln(stderr, "ftvet:", err)
		return 2
	}
	loader := ftvet.NewLoader(root, module)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "ftvet:", err)
		return 2
	}
	if args := flags.Args(); len(args) > 0 && !(len(args) == 1 && (args[0] == "./..." || args[0] == "all")) {
		pkgs = filterPackages(pkgs, args, module)
		if len(pkgs) == 0 {
			fmt.Fprintln(stderr, "ftvet: no packages match the given patterns")
			return 2
		}
	}

	if *callgraph || *summary {
		// Debug dumps are scoped to the filtered package set: edges into
		// unlisted packages are resolved (the loader pulls dependencies)
		// but only functions defined in listed packages get nodes.
		g := flow.Build(loader.Fset, pkgs)
		if *callgraph {
			g.DumpCallGraph(stdout)
		}
		if *summary {
			g.DumpSummaries(stdout)
		}
		return 0
	}

	diags := nondet.Check(loader.Fset, pkgs)
	if *format == "sarif" {
		// Always emit a well-formed log, even when clean, so a CI upload
		// step has a file to consume on every run.
		if err := ftvet.WriteSARIF(stdout, loader.Fset, root, nondet.Name, nondet.Doc, diags); err != nil {
			fmt.Fprintln(stderr, "ftvet:", err)
			return 2
		}
	} else {
		ftvet.Print(stdout, loader.Fset, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ftvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModule locates the go.mod enclosing dir and returns its directory
// and module path.
func findModule(dir string) (root, module string, err error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// filterPackages keeps packages matching go-style patterns: ./x,
// ./x/... (relative to root), or full import paths, with "..." matching
// any suffix.
func filterPackages(pkgs []*ftvet.Package, patterns []string, module string) []*ftvet.Package {
	match := func(path string) bool {
		for _, pat := range patterns {
			pat = strings.TrimSuffix(pat, "/")
			if rel, ok := strings.CutPrefix(pat, "./"); ok {
				pat = module
				if rel != "" {
					pat = module + "/" + rel
				}
			}
			if strings.HasSuffix(pat, "/...") {
				prefix := strings.TrimSuffix(pat, "/...")
				if path == prefix || strings.HasPrefix(path, prefix+"/") {
					return true
				}
				continue
			}
			if path == pat {
				return true
			}
		}
		return false
	}
	var out []*ftvet.Package
	for _, p := range pkgs {
		if match(p.Path) {
			out = append(out, p)
		}
	}
	return out
}
