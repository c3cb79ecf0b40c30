// Command ftbench regenerates the paper's evaluation tables and figures,
// and the sweeps behind the extensions.
//
// Usage:
//
//	ftbench -exp all -quick     # every experiment, paper figures at reduced size
//	ftbench -exp fig8           # one experiment at full size (here: the 10 GB transfer)
//	ftbench -exp all -quick -json experiments.json
//
// -h lists the experiments (the registry is bench.Experiments). Each prints
// one report; -json also writes the reports of the selected experiments to
// a file as one JSON array. `make experiments` regenerates the checked-in
// experiments.json that way.
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
	jsonOut := flag.String("json", "", "also write the reports as a JSON array to this file")
	flag.Parse()
	if err := run(os.Stdout, *exp, *seed, *quick, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, seed int64, quick bool, jsonOut string) error {
	exps := bench.Experiments
	if exp != "all" {
		e, ok := bench.Lookup(exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		exps = []bench.Experiment{e}
	}
	var reports []bench.Report
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
		fmt.Fprintln(w)
		reports = append(reports, report)
	}
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(data, '\n'), 0o644)
}
