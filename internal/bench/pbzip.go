package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
)

// PBZIPPoint is one block size of Figures 4 and 5.
type PBZIPPoint struct {
	BlockKB     int
	Ubuntu      float64 // blocks/s on the baseline
	FTBurst     float64 // blocks/s in a short burst
	FTSustained float64 // blocks/s over a long period
	PctOfUbuntu float64 // FTSustained / Ubuntu * 100 (right axis of Fig. 4)
	MsgPerSec   float64 // Fig. 5: inter-replica messages/s (sustained)
	BytesPerSec float64 // Fig. 5: inter-replica bytes/s (sustained)
}

// PBZIPBlockKBs are the Figure 4/5 x-axis block sizes.
func PBZIPBlockKBs() []int { return []int{25, 50, 75, 100, 200, 400, 600, 900} }

// PBZIPOpts bound the per-point simulated work.
type PBZIPOpts struct {
	Seed int64
	// Window is how long the FT run is measured (sustained needs the log
	// ring to have filled); the baseline runs for Window/2.
	Window time.Duration
	// Burst is the initial interval used for the burst rate.
	Burst time.Duration
}

// DefaultPBZIPOpts measures sustained throughput over a 12 s window.
func DefaultPBZIPOpts() PBZIPOpts {
	return PBZIPOpts{Seed: 1, Window: 12 * time.Second, Burst: time.Second}
}

// PBZIP reproduces Figures 4 and 5: compressing a 1 GB file with 32 worker
// threads on Ubuntu versus FT-Linux, as a function of the block size.
func PBZIP(blockKBs []int, opts PBZIPOpts) ([]PBZIPPoint, error) {
	var points []PBZIPPoint
	for _, kb := range blockKBs {
		p, err := pbzipPoint(kb, opts)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

func pbzipCfg(kb int, window time.Duration) pbzip2.Config {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = kb << 10
	// Bound the blocks to what an ideal (uncontended) run could complete
	// in the window, so sweeps stay tractable; the full 1 GB file is the
	// cap, exactly as in the paper.
	ideal := float64(cfg.Workers) * cfg.CompressRate / float64(cfg.BlockSize)
	max := int(ideal*window.Seconds()) + cfg.Workers
	total := int(cfg.FileSize / int64(cfg.BlockSize))
	if max < total {
		cfg.MaxBlocks = max
	}
	return cfg
}

func pbzipPoint(kb int, opts PBZIPOpts) (PBZIPPoint, error) {
	point := PBZIPPoint{BlockKB: kb}

	// Baseline (stock Ubuntu allocated one partition's resources).
	base, err := core.NewBaseline(core.DefaultConfig(opts.Seed))
	if err != nil {
		return point, err
	}
	defer base.Sim.Shutdown()
	var bst pbzip2.Stats
	bcfg := pbzipCfg(kb, opts.Window/2)
	base.Launch("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, bcfg, &bst) })
	if err := base.Sim.RunUntil(sim.Time(opts.Window / 2)); err != nil {
		return point, err
	}
	point.Ubuntu = steadyRate(bst.BlockTimes, opts.Burst, sim.Time(opts.Window/2))
	if point.Ubuntu == 0 {
		return point, fmt.Errorf("bench: pbzip2 baseline made no progress at %dKB", kb)
	}

	// FT-Linux. The paper's prototype streams every log tuple as its own
	// mailbox message, so Figure 5's absolute message/byte rates are only
	// comparable in that configuration; batched traffic is measured by
	// BatchSweep (ftbench -exp batching).
	sys, err := core.New(core.WithSeed(opts.Seed), core.WithRejoin(false),
		func(c *core.Config) { c.Replication.BatchTuples = 1 })
	if err != nil {
		return point, err
	}
	defer sys.Sim.Shutdown()
	var fst, sst pbzip2.Stats
	fcfg := pbzipCfg(kb, opts.Window)
	sys.Primary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, fcfg, &fst) })
	sys.Secondary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, fcfg, &sst) })

	mid := sim.Time(opts.Window / 2)
	var midStats = sys.Fabric.Stats()
	if err := sys.Sim.RunUntil(mid); err != nil {
		return point, err
	}
	midStats = sys.Fabric.Stats()
	if err := sys.Sim.RunUntil(sim.Time(opts.Window)); err != nil {
		return point, err
	}
	endStats := sys.Fabric.Stats()

	point.FTSustained = steadyRate(fst.BlockTimes, time.Duration(mid), sim.Time(opts.Window))
	if done := fst.FinishedAt; done != 0 && done < sim.Time(opts.Window) {
		// The run finished before the window closed: use the overall rate
		// past the burst phase.
		point.FTSustained = steadyRate(fst.BlockTimes, opts.Burst, done)
	}
	point.FTBurst = rateIn(fst.BlockTimes, sim.Time(opts.Burst/10), sim.Time(opts.Burst/2))
	if point.FTBurst < point.FTSustained {
		// Large blocks complete too slowly for the early window to be
		// meaningful; the attainable burst is never below sustained.
		point.FTBurst = point.FTSustained
	}
	point.PctOfUbuntu = 100 * point.FTSustained / point.Ubuntu
	window := sim.Time(opts.Window).Sub(mid)
	if done := fst.FinishedAt; done != 0 && done < sim.Time(opts.Window) {
		window = done.Sub(mid)
	}
	if window > 0 {
		point.MsgPerSec, point.BytesPerSec = trafficRate(midStats, endStats, window)
	}
	return point, nil
}

// steadyRate measures the completion rate between warmup and end.
func steadyRate(times []sim.Time, warmup time.Duration, end sim.Time) float64 {
	from := sim.Time(warmup)
	if from >= end {
		from = 0
	}
	return rateIn(times, from, end)
}
