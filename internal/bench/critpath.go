package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs/causal"
)

// critPath runs the attribution benchmark on the headline cell of the
// detshard and fabric sweeps (8 threads, independent locks, the bounded
// log ring): the detshard workload at one shard and at detShards — the
// bottleneck should move off replay-grant and commit-wait when sharded —
// and the fabric sustained-overload workload, where commit-wait on the
// bounded ring should dominate. Each run is traced in full and attributed
// per committed output (causal.Attribute); a point is one pipeline stage
// of one run, carrying the run's totals beside the stage's distribution,
// with dominant=1 on the stage holding the largest attributed total — the
// pipeline's current bottleneck for that workload.
func critPath(seed int64, _ bool) (Report, error) {
	const threads = headlineThreads
	report := Report{Exp: "critpath", Seed: seed}
	for _, cell := range []struct {
		workload string
		shards   int
		loop     lockLoop
	}{
		{"detshard", 1, detShardLoop(threads, threads)},
		{"detshard", detShards, detShardLoop(threads, threads)},
		{"fabric-sustained", 1, fabricWorkloads["sustained"].loop(threads)},
	} {
		points, err := critPathPoints(seed, cell.workload, cell.shards, cell.loop)
		if err != nil {
			return report, fmt.Errorf("bench: critpath %s %dt/%ds: %w", cell.workload, threads, cell.shards, err)
		}
		report.Points = append(report.Points, points...)
	}
	return report, nil
}

func critPathPoints(seed int64, workload string, shards int, loop lockLoop) ([]Point, error) {
	run, err := runSweep(seed, core.App{Name: "critpath", Main: loop.run}, nil, boundedRing(shards), core.WithTrace())
	if err != nil {
		return nil, err
	}
	events := run.sys.Obs.Events()
	a := causal.Attribute(causal.Build(events))
	dominant := 0
	for i, st := range a.Stages {
		if st.TotalNs > a.Stages[dominant].TotalNs {
			dominant = i
		}
	}
	var points []Point
	for i, st := range a.Stages {
		points = append(points, Point{
			Labels: []Label{label("workload", workload), label("threads", loop.threads), label("shards", shards), label("stage", st.Stage)},
			Values: []Named{
				val("outputs", len(a.Outputs), "count"), // committed outputs attributed
				val("events", len(events), "count"),     // trace events analyzed
				val("nonzero", st.Count, "count"),       // outputs that spent time in this stage
				val("p50_ns", st.P50, "ns"),
				val("p90_ns", st.P90, "ns"),
				val("p99_ns", st.P99, "ns"),
				val("max_ns", st.MaxNs, "ns"),
				val("total_ns", st.TotalNs, "ns"),
				val("dominant", btoi(i == dominant), "bool"),
				val("sim_ms", ms(run.finished), "ms"),
			},
		})
	}
	return points, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
