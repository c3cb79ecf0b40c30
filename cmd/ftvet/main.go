// Command ftvet is the FT-Linux static checker: it runs the two rules no
// runtime check enforces — nondet (no wall clock, pid, process-seeded
// rand or map-iteration order reaching replicated code, directly or
// through helpers) and lockorder (no lock-acquisition cycle) — over the
// module and exits non-zero on findings, mirroring `go vet` usage:
//
//	go run ./cmd/ftvet ./...             # whole module (the default)
//	go run ./cmd/ftvet ./internal/tcprep ./internal/replication
//	go run ./cmd/ftvet -list             # describe the analyzers
//	go run ./cmd/ftvet -run nondet       # subset by name
//	go run ./cmd/ftvet -format=sarif ./... > ftvet.sarif
//	go run ./cmd/ftvet -callgraph ./internal/replication
//	go run ./cmd/ftvet -summary ./internal/shm
//
// Findings print in the canonical file:line:col format (or as SARIF
// 2.1.0 with -format=sarif, for CI annotation upload). The
// -callgraph and -summary flags dump the interprocedural engine's
// resolved call edges and per-function summaries instead of
// running the analyzers — the artifacts for debugging a surprising
// multi-hop trace. Suppressions use the audited escape
// hatch documented in internal/analysis/ftvet:
//
//	//ftvet:allow <analyzer>: <justification>
//
// The analyzers are built on the in-repo framework (internal/analysis/
// ftvet) rather than golang.org/x/tools/go/analysis, which is not
// vendorable in this offline container; for the same reason ftvet runs
// as a standalone command instead of a -vettool plugin.
//
// The other FT rules — a deterministic section neither parks nor nests,
// a waiter is armed only after a flush, truncation waits for a verified
// boundary — are enforced at run time; DESIGN.md §10 records the mutation
// audit that showed which check catches what.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/nondet"
)

// All is the registered analyzer suite.
var All = []*ftvet.Analyzer{nondet.Analyzer, lockorder.Analyzer}

func main() {
	list := flag.Bool("list", false, "describe the registered analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := flag.String("format", "text", "output format: text or sarif")
	verbose := flag.Bool("v", false, "print per-analyzer timing to stderr")
	callgraph := flag.Bool("callgraph", false, "dump the resolved call graph instead of running analyzers")
	summary := flag.Bool("summary", false, "dump per-function taint summaries instead of running analyzers")
	flag.Parse()

	if *list {
		for _, a := range All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := All
	if *run != "" {
		byName := map[string]*ftvet.Analyzer{}
		for _, a := range All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ftvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftvet:", err)
		os.Exit(2)
	}
	loader := ftvet.NewLoader(root, module)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftvet:", err)
		os.Exit(2)
	}
	if args := flag.Args(); len(args) > 0 && !(len(args) == 1 && (args[0] == "./..." || args[0] == "all")) {
		pkgs = filterPackages(pkgs, args, module, root)
		if len(pkgs) == 0 {
			fmt.Fprintln(os.Stderr, "ftvet: no packages match the given patterns")
			os.Exit(2)
		}
	}

	if *callgraph || *summary {
		// Debug dumps are scoped to the filtered package set: edges into
		// unlisted packages are resolved (the loader pulls dependencies)
		// but only functions defined in listed packages get nodes.
		g := flow.Build(loader.Fset, pkgs)
		if *callgraph {
			g.DumpCallGraph(os.Stdout)
		}
		if *summary {
			g.DumpSummaries(os.Stdout)
		}
		return
	}

	// Subset runs still pass the full registry as the known-analyzer
	// set, so an //ftvet:allow naming an analyzer outside this run is
	// accepted rather than flagged as a typo.
	known := make([]string, len(All))
	for i, a := range All {
		known[i] = a.Name
	}
	diags, timings, err := ftvet.RunTimed(loader.Fset, pkgs, analyzers, known)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *verbose {
		perAnalyzer := map[string]time.Duration{}
		for _, tm := range timings {
			perAnalyzer[tm.Analyzer] += tm.Elapsed
		}
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "ftvet: %-12s %v over %d package(s)\n",
				a.Name, perAnalyzer[a.Name].Round(time.Millisecond), len(pkgs))
		}
	}

	n := len(diags)
	switch *format {
	case "text":
		n = ftvet.Print(os.Stdout, loader.Fset, diags)
	case "sarif":
		// Always emit a well-formed log, even when clean, so a CI upload
		// step has a file to consume on every run.
		err = ftvet.WriteSARIF(os.Stdout, loader.Fset, root, All, diags)
	default:
		fmt.Fprintf(os.Stderr, "ftvet: unknown format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftvet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "ftvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// findModule locates the enclosing go.mod and returns its directory and
// module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
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
func filterPackages(pkgs []*ftvet.Package, patterns []string, module, root string) []*ftvet.Package {
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
