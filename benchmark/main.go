// Command benchmark is the one benchmark of the FT-Linux simulation: four
// workloads, each run unreplicated and replicated with the same seed,
// reporting what a client sees on the virtual clock, what the simulator
// costs the host as exact counts, and a per-layer ledger beneath both.
//
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -compare before.json after.json
//
// The benchmark driver's form (see BENCHMARK.json) measures one side per
// run and ends with one JSON line:
//
//	bash benchmark/run.sh --workload web-short --seed 1 --seconds 10 --trace 0
//
// README.md in this directory has the workload rationale and the table
// of which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the simulation and of every generated input")
		seconds  = flag.Float64("seconds", nominalSeconds, "nominal run length; scales every workload's virtual window")
		trace    = flag.String("trace", "", "driver form: 0 = end-to-end metrics only, 1 = per-layer metrics only (default: both)")
		outPath  = flag.String("out", "", "write the full report as JSON to this file")
		traceDir = flag.String("tracedir", "benchmark/out", "directory for the traced run's <workload>.trace.json")
		compare  = flag.Bool("compare", false, "compare two reports with the bounds of ./BENCHMARK.json: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}

	opts := runOpts{seed: *seed, scale: *seconds / nominalSeconds, endToEnd: true, layers: true,
		traceDir: *traceDir, setups: setupReps}
	switch *trace {
	case "":
	case "0":
		opts.layers = false
	case "1":
		opts.endToEnd = false
	default:
		fatal("-trace must be 0 or 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if *trace != "" && len(selected) != 1 {
		fatal("-trace needs a single -workload")
	}

	report := Report{Seed: *seed, Seconds: *seconds}
	correct := true
	for _, w := range selected {
		res, err := runWorkload(w, opts)
		if err != nil {
			fatal("%v", err)
		}
		printResult(os.Stdout, res)
		report.Workloads = append(report.Workloads, res)
		correct = correct && res.Correct
	}
	if *outPath != "" {
		if err := writeReport(*outPath, report); err != nil {
			fatal("%v", err)
		}
	}
	if *trace != "" {
		res := report.Workloads[0]
		line := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed}
		if opts.endToEnd {
			line.Metrics = contractEndToEnd(res.EndToEnd)
		} else {
			line.Metrics = contractPerLayer(res.PerLayer)
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(b))
	}
	if !correct {
		os.Exit(1)
	}
}

// printResult lists one workload's metrics by name, with units.
func printResult(w io.Writer, r WorkloadResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s, %d attempted, %d failed, %d latency samples\n",
		r.Name, verdict, r.Attempted, r.Failed, r.LatencySamples)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	for _, part := range []struct {
		title string
		m     Metrics
	}{{"end to end", r.EndToEnd}, {"per layer", r.PerLayer}} {
		if len(part.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "-- %s\n", part.title)
		for _, name := range part.m.names() {
			fmt.Fprintf(w, "   %-40s %16.6g %s\n", name, part.m[name].Value, part.m[name].Unit)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// contractEndToEnd keeps the end-to-end metrics defined on every
// workload: exactly the end_to_end list of BENCHMARK.json.
func contractEndToEnd(m Metrics) Metrics {
	out := Metrics{}
	for _, e := range endToEnd {
		if e.everywhere {
			out.set(e.Name, m[e.Name].Value)
		}
	}
	return out
}

// contractPerLayer reports every per-layer metric: a layer the workload
// leaves idle reads zero.
func contractPerLayer(m Metrics) Metrics {
	out := Metrics{}
	for _, s := range perLayer {
		out.set(s.Name, m[s.Name].Value)
	}
	return out
}

func writeReport(path string, r Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
