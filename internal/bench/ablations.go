package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/sim"
)

// ablationRow is what one configuration of one ablation measured. The
// Mongoose rows fill rate, latency and divergences; the PBZIP2 rows rate,
// the two block counts and divergences. What a row does not measure
// reads 0.
type ablationRow struct {
	rate                           float64 // req/s or sustained blocks/s
	latency                        time.Duration
	primaryBlocks, secondaryBlocks int
	divergences                    uint64
}

// ablatePBZIP runs the FT configuration of the PBZIP2 workload at one block
// size and reports sustained blocks/s plus replay health.
func ablatePBZIP(seed int64, tune core.Option, blockKB int, window time.Duration) (ablationRow, error) {
	sys, err := core.New(core.WithSeed(seed), core.WithRejoin(false), tune)
	if err != nil {
		return ablationRow{}, err
	}
	defer sys.Sim.Shutdown()
	app, stats := pbzipApp(pbzipCfg(blockKB, window))
	sys.Run(app)
	if err := sys.Sim.RunUntil(sim.Time(window)); err != nil {
		return ablationRow{}, err
	}
	fst, sst := stats[sys.Primary.NS], stats[sys.Secondary.NS]
	end := sim.Time(window)
	if fst.FinishedAt != 0 && fst.FinishedAt < end {
		end = fst.FinishedAt
	}
	return ablationRow{
		rate:            steadyRate(fst.BlockTimes, window/3, end),
		primaryBlocks:   fst.Blocks,
		secondaryBlocks: sst.Blocks,
		divergences:     sys.Secondary.NS.Stats().Divergences,
	}, nil
}

// ablateMongoose measures throughput and mean request latency at a
// moderate load (1 ms of CPU per request, 10 connections) under the given
// replication config.
func ablateMongoose(seed int64, tune core.Option, window time.Duration) (ablationRow, error) {
	const concurrency = 10
	mcfg := mongoose.DefaultConfig()
	mcfg.CPULoad = time.Millisecond
	var served mongoose.Stats
	sys, client, err := ftMongoose(seed, mcfg, &served, tune)
	if err != nil {
		return ablationRow{}, err
	}
	defer sys.Sim.Shutdown()
	ab := startAB(client, mcfg, concurrency, window)
	if err := sys.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
		return ablationRow{}, err
	}
	return ablationRow{rate: ab.Throughput(measured(window)), latency: ab.MeanLatency(), divergences: sys.Secondary.NS.Stats().Divergences}, nil
}

// ablations quantifies the design choices DESIGN.md §5 calls out.
func ablations(seed int64, quick bool) (Report, error) {
	window := window(quick, 5*time.Second, 8*time.Second)
	report := Report{Exp: "ablations", Seed: seed, Params: []Label{label("window", window)}}
	cost := func(mult time.Duration) core.Option {
		return func(c *core.Config) {
			c.Replication.SectionCost *= mult
			c.Replication.ReplayDispatchCost *= mult
		}
	}
	futex := func(fifo bool) core.Option {
		return func(c *core.Config) {
			c.Kernel.FutexFIFO = fifo
			c.Replication.PanicOnDivergence = false
		}
	}
	ring := func(bytes int64) core.Option {
		return func(c *core.Config) { c.Replication.LogRingBytes = bytes }
	}
	idleWake := func(worst time.Duration) core.Option {
		return func(c *core.Config) {
			c.Kernel.IdleWakeMax = worst
			if worst == 0 {
				c.Kernel.IdleWakeMin = 0
			}
		}
	}
	for _, c := range []struct {
		ablation, configuration string
		blockKB                 int // PBZIP2 block size; 0 runs the Mongoose workload
		window                  time.Duration
		tune                    core.Option
	}{
		// Output-commit strictness (§3.5): strict waits for secondary acks
		// before releasing network output; relaxed releases immediately.
		{"output-commit", "strict (wait for ack), req/s", 0, window, core.WithStrictOutputCommit(true)},
		{"output-commit", "relaxed (release immediately), req/s", 0, window, core.WithStrictOutputCommit(false)},
		// Deterministic-section serialization cost: the global mutex is the
		// paper's stated scalability limit; quadrupling the in-section cost
		// shows how strongly PBZIP2 sustained throughput depends on it.
		{"det-serialization", "1x section/dispatch cost, blocks/s @50KB", 50, window, cost(1)},
		{"det-serialization", "4x section/dispatch cost, blocks/s @50KB", 50, window, cost(4)},
		// FIFO futex (§3.3): stock unordered wake-up breaks replay.
		{"futex-order", "FIFO futex (paper), blocks/s @100KB", 100, window / 2, futex(true)},
		{"futex-order", "stock unordered wake, blocks/s @100KB", 100, window / 2, futex(false)},
		// In-flight log buffer: the ring is what separates burst from
		// sustained throughput.
		{"log-ring", "64 KiB, blocks/s @50KB", 50, window, ring(64 << 10)},
		{"log-ring", "4096 KiB, blocks/s @50KB", 50, window, ring(4 << 20)},
		{"log-ring", "32768 KiB, blocks/s @50KB", 50, window, ring(32 << 20)},
		// Idle-wake (wake_up_process) latency sensitivity (§4.1).
		{"idle-wake", "max penalty 0s, blocks/s @25KB", 25, window, idleWake(0)},
		{"idle-wake", "max penalty 15ms, blocks/s @25KB", 25, window, idleWake(15 * time.Millisecond)},
		{"idle-wake", "max penalty 50ms, blocks/s @25KB", 25, window, idleWake(50 * time.Millisecond)},
	} {
		var row ablationRow
		var err error
		if c.blockKB == 0 {
			row, err = ablateMongoose(seed, c.tune, c.window)
		} else {
			row, err = ablatePBZIP(seed, c.tune, c.blockKB, c.window)
		}
		if err != nil {
			return report, fmt.Errorf("bench: ablation %s, %s: %w", c.ablation, c.configuration, err)
		}
		report.Points = append(report.Points, Point{
			Labels: []Label{label("ablation", c.ablation), label("configuration", c.configuration)},
			Values: []Named{
				val("rate_s", row.rate, "1/s"),
				val("mean_latency_ns", row.latency, "ns"),
				val("primary_blocks", row.primaryBlocks, "blocks"),
				val("secondary_blocks", row.secondaryBlocks, "blocks"),
				val("divergences", row.divergences, "count"),
			},
		})
	}
	return report, nil
}
