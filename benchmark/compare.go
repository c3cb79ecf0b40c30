package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bounds returns each end-to-end metric's regression bound: the one
// BENCHMARK.json fixes where it lists the metric, virtualBound for the
// workload-specific client metrics it cannot list.
func bounds(specPath string) (map[string]float64, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	out := make(map[string]float64)
	for _, e := range endToEnd {
		out[e.Name] = virtualBound
	}
	for _, e := range bs.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out, nil
}

// verdict classifies metric name going from a to b.
func verdict(s spec, bound, a, b float64) string {
	worse := b - a // for "lower is better"
	if s.Better == higher {
		worse = a - b
	}
	slack := bound * a
	if s.Name == "setup_s" && slack < setupSlack {
		slack = setupSlack // a few milliseconds of set-up are mostly host noise
	}
	switch {
	case worse > slack:
		return "regressed"
	case -worse > slack:
		return "improved"
	}
	return "unchanged"
}

// compareReports applies the bounds per (metric, workload) to the
// end-to-end metrics of two reports and prints one line each. It reports
// false on any regression or a higher failed_ops_pct. A cell missing on
// either side, or an incorrect run, is unresolved, not unchanged.
func compareReports(w io.Writer, pathA, pathB, specPath string) (bool, error) {
	bound, err := bounds(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: comparing seed %d / %v s against seed %d / %v s: virtual metrics differ by input, not only by code\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	byName := make(map[string]WorkloadResult)
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	ok := true
	count := make(map[string]int)
	for _, ra := range a.Workloads {
		rb, found := byName[ra.Name]
		for _, e := range endToEnd {
			ma, inA := ra.EndToEnd[e.Name]
			mb, inB := rb.EndToEnd[e.Name]
			if !inA && !inB && found {
				continue // not applicable to this workload
			}
			v := "unresolved"
			if found && inA && inB && ra.Correct && rb.Correct {
				v = verdict(e.spec, bound[e.Name], ma.Value, mb.Value)
			}
			if e.Name == "failed_ops_pct" && inA && inB && mb.Value > ma.Value {
				v = "regressed"
			}
			if v == "regressed" {
				ok = false
			}
			count[v]++
			fmt.Fprintf(w, "%-11s %-16s %-24s %14.6g -> %-14.6g %s (bound %.0f%%)\n",
				v, ra.Name, e.Name, ma.Value, mb.Value, e.Unit, 100*bound[e.Name])
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		count["improved"], count["unchanged"], count["regressed"], count["unresolved"])
	return ok, nil
}
