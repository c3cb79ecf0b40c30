// Command ftbench regenerates the paper's evaluation tables and figures,
// and the sweeps behind the extensions.
//
// Usage:
//
//	ftbench -exp all -quick     # every experiment, paper figures at reduced size
//	ftbench -exp fig8           # one experiment at full size (here: the 10 GB transfer)
//	ftbench -exp epoch -gate goldens/bench-baselines.json -json BENCH_epoch.json
//
// -h lists the experiments (the registry is bench.Experiments). Each prints
// one report; -json also writes it to a file, and -gate checks its ratios
// against the pinned floors. `make sweeps` regenerates the six checked-in
// BENCH_<exp>.json files that way, `make experiments` the checked-in
// experiments_output.txt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", ")+" (fig5 = fig4, fig7 = fig6)")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "shorter simulated windows for the paper figures (the sweeps always run at full size)")
	jsonOut := flag.String("json", "", "also write the experiment's report as JSON to this file (one experiment, not -exp all)")
	gatePath := flag.String("gate", "", "baseline file (goldens/bench-baselines.json): fail when a ratio pinned there has slipped past its tolerance")
	flag.Parse()
	if err := run(os.Stdout, *exp, *seed, *quick, *jsonOut, *gatePath); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, seed int64, quick bool, jsonOut, gatePath string) error {
	exps := bench.Experiments
	if exp != "all" {
		e, ok := bench.Lookup(exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		exps = []bench.Experiment{e}
	} else if jsonOut != "" {
		return fmt.Errorf("-json holds one report: pick one experiment with -exp, not all")
	}
	var baselines bench.Baselines
	if gatePath != "" {
		var err error
		if baselines, err = bench.LoadBaselines(gatePath); err != nil {
			return err
		}
	}
	for _, e := range exps {
		fmt.Fprintf(w, "== %s ==\n", e.Title)
		report, err := e.Run(seed, quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		report.Table(w)
		for _, note := range e.Notes {
			fmt.Fprintln(w, note)
		}
		if gatePath != "" {
			checked, err := bench.Gate(report, baselines)
			if err != nil {
				return fmt.Errorf("%s: gate:\n%w", e.Name, err)
			}
			fmt.Fprintf(w, "gate: %s pins %d of the %d %s ratios; none is below its floor\n", gatePath, checked, len(report.Ratios), e.Name)
		}
		if jsonOut != "" {
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", jsonOut)
		}
		fmt.Fprintln(w)
	}
	return nil
}
