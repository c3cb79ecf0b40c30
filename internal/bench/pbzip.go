package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// pbzipBurst is the initial interval used for the burst rate.
const pbzipBurst = time.Second

// pbzip reproduces Figures 4 and 5: compressing a 1 GB file with 32 worker
// threads on Ubuntu versus FT-Linux, as a function of the block size —
// throughput (baseline, FT burst, FT sustained) and the inter-replica
// traffic of the sustained phase. window is how long the FT run is
// measured (sustained needs the log ring to have filled); the baseline
// runs for window/2.
func pbzip(seed int64, blockKBs []int, window time.Duration) (Report, error) {
	report := Report{Exp: "fig4", Seed: seed, Params: []Label{label("window", window)}}
	for _, kb := range blockKBs {
		p, err := pbzipPoint(seed, kb, window)
		if err != nil {
			return report, err
		}
		report.Points = append(report.Points, p)
	}
	return report, nil
}

func pbzipCfg(kb int, window time.Duration) pbzip2.Config {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = kb << 10
	// Bound the blocks to what an ideal (uncontended) run could complete
	// in the window, so sweeps stay tractable; the full 1 GB file is the
	// cap, exactly as in the paper.
	ideal := float64(cfg.Workers) * cfg.CompressRate / float64(cfg.BlockSize)
	bound := int(ideal*window.Seconds()) + cfg.Workers
	total := int(cfg.FileSize / int64(cfg.BlockSize))
	if bound < total {
		cfg.MaxBlocks = bound
	}
	return cfg
}

// pbzipApp is PBZIP2 at cfg as a replicated app, and the stats each
// replica counts into, keyed by its namespace.
func pbzipApp(cfg pbzip2.Config) (core.App, map[*replication.Namespace]*pbzip2.Stats) {
	stats := make(map[*replication.Namespace]*pbzip2.Stats)
	return core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		st := new(pbzip2.Stats)
		stats[th.NS()] = st
		pbzip2.Run(th, cfg, st)
	}}, stats
}

func pbzipPoint(seed int64, kb int, window time.Duration) (Point, error) {
	// Baseline (stock Ubuntu allocated one partition's resources).
	base, err := core.NewBaseline(core.DefaultConfig(seed))
	if err != nil {
		return Point{}, err
	}
	defer base.Sim.Shutdown()
	var bst pbzip2.Stats
	bcfg := pbzipCfg(kb, window/2)
	base.LaunchApp("pbzip2", nil, func(th *replication.Thread, _ *tcprep.Sockets) { pbzip2.Run(th, bcfg, &bst) })
	if err := base.Sim.RunUntil(sim.Time(window / 2)); err != nil {
		return Point{}, err
	}
	ubuntu := steadyRate(bst.BlockTimes, pbzipBurst, sim.Time(window/2))
	if ubuntu == 0 {
		return Point{}, fmt.Errorf("bench: pbzip2 baseline made no progress at %dKB", kb)
	}

	// FT-Linux. The paper's prototype streams every log tuple as its own
	// mailbox message, so Figure 5's absolute message/byte rates are only
	// comparable in that configuration; batched traffic is measured by the
	// batching sweep.
	sys, err := core.New(core.WithSeed(seed),
		func(c *core.Config) { c.Replication.BatchTuples = 1 })
	if err != nil {
		return Point{}, err
	}
	defer sys.Sim.Shutdown()
	app, stats := pbzipApp(pbzipCfg(kb, window))
	sys.Run(app)

	mid, end := sim.Time(window/2), sim.Time(window)
	if err := sys.Sim.RunUntil(mid); err != nil {
		return Point{}, err
	}
	midStats := sys.Fabric.Stats()
	if err := sys.Sim.RunUntil(end); err != nil {
		return Point{}, err
	}
	endStats := sys.Fabric.Stats()
	fst := stats[sys.Primary.NS]

	sustained := steadyRate(fst.BlockTimes, time.Duration(mid), end)
	traffic := end.Sub(mid)
	if done := fst.FinishedAt; done != 0 && done < end {
		// The run finished before the window closed: use the overall rate
		// past the burst phase.
		sustained = steadyRate(fst.BlockTimes, pbzipBurst, done)
		traffic = done.Sub(mid)
	}
	// Large blocks complete too slowly for the early window to be
	// meaningful; the attainable burst is never below sustained.
	burst := max(rateIn(fst.BlockTimes, sim.Time(pbzipBurst/10), sim.Time(pbzipBurst/2)), sustained)
	var msgs, bytes float64
	if traffic > 0 {
		msgs, bytes = trafficRate(midStats, endStats, traffic)
	}
	return Point{
		Labels: []Label{label("block_kb", kb)},
		Values: []Named{
			val("ubuntu_blocks_s", ubuntu, "blocks/s"),
			val("ft_burst_blocks_s", burst, "blocks/s"),
			val("ft_sustained_blocks_s", sustained, "blocks/s"),
			val("pct_of_ubuntu", 100*sustained/ubuntu, "%"),
			val("msg_s", msgs, "msgs/s"), // Fig. 5, sustained phase
			val("mb_s", bytes/1e6, "MB/s"),
		},
	}, nil
}

// steadyRate measures the completion rate between warmup and end.
func steadyRate(times []sim.Time, warmup time.Duration, end sim.Time) float64 {
	from := sim.Time(warmup)
	if from >= end {
		from = 0
	}
	return rateIn(times, from, end)
}
