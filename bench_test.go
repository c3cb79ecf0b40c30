package repro_test

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkExperiment regenerates the paper's evaluation and the extension
// sweeps, one sub-benchmark per ftbench experiment (paper figures at -quick
// size), and reports each experiment's headline ratios via b.ReportMetric
// so the shape can be compared against the paper (see EXPERIMENTS.md).
// cmd/ftbench prints the full tables.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := e.Run(1, true)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range r.Ratios {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		})
	}
}
