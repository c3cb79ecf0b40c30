package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// ftPBZIPRate runs the FT configuration of the PBZIP2 workload at one block
// size and reports sustained blocks/s plus replay health.
func ftPBZIPRate(seed int64, tune core.Option, blockKB int, window time.Duration) (sustained float64, primaryBlocks, secondaryBlocks int, divergences uint64, err error) {
	sys, err := core.New(core.WithSeed(seed), core.WithRejoin(false), tune)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer sys.Sim.Shutdown()
	var fst, sst pbzip2.Stats
	pcfg := pbzipCfg(blockKB, window)
	sys.Primary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, pcfg, &fst) })
	sys.Secondary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, pcfg, &sst) })
	if err := sys.Sim.RunUntil(sim.Time(window)); err != nil {
		return 0, 0, 0, 0, err
	}
	end := sim.Time(window)
	if fst.FinishedAt != 0 && fst.FinishedAt < end {
		end = fst.FinishedAt
	}
	sustained = steadyRate(fst.BlockTimes, window/3, end)
	return sustained, fst.Blocks, sst.Blocks, sys.Secondary.NS.Stats().Divergences, nil
}

// ftMongooseLatency measures mean request latency at a moderate load under
// the given replication config.
func ftMongooseLatency(seed int64, tune core.Option, window time.Duration) (float64, time.Duration, error) {
	sys, err := core.New(core.WithSeed(seed), core.WithRejoin(false), tune)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return 0, 0, err
	}
	mcfg := mongoose.DefaultConfig()
	mcfg.CPULoad = time.Millisecond
	var mst mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &mst)
	}})
	var ab clients.ABStats
	clients.RunAB(client, clients.ABConfig{
		Port: mcfg.Port, Concurrency: 10, ResponseBytes: mongoose.PageSize(mcfg),
		Duration: window, WarmUp: window / 4,
	}, &ab)
	if err := sys.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
		return 0, 0, err
	}
	return ab.Throughput(window - window/4), ab.MeanLatency(), nil
}

// Ablations quantifies the design choices DESIGN.md calls out, returning
// printable rows [name, configuration, result].
func Ablations(seed int64, quick bool) ([][]string, error) {
	window := 8 * time.Second
	if quick {
		window = 5 * time.Second
	}
	var rows [][]string

	// 1. Output-commit strictness (§3.5): strict waits for secondary acks
	// before releasing network output; relaxed releases immediately.
	for _, strict := range []bool{true, false} {
		rps, lat, err := ftMongooseLatency(seed, core.WithStrictOutputCommit(strict), window)
		if err != nil {
			return nil, err
		}
		name := "relaxed (release immediately)"
		if strict {
			name = "strict (wait for ack)"
		}
		rows = append(rows, []string{"output-commit", name,
			fmt.Sprintf("%.0f req/s, %v mean latency", rps, lat)})
	}

	// 2. Deterministic-section serialization cost: the global mutex is the
	// paper's stated scalability limit; quadrupling the in-section cost
	// shows how strongly PBZIP2 sustained throughput depends on it.
	for _, mult := range []int{1, 4} {
		rate, _, _, _, err := ftPBZIPRate(seed, func(c *core.Config) {
			c.Replication.SectionCost *= time.Duration(mult)
			c.Replication.ReplayDispatchCost *= time.Duration(mult)
		}, 50, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{"det-serialization",
			fmt.Sprintf("%dx section/dispatch cost", mult),
			fmt.Sprintf("%.0f blocks/s sustained @50KB", rate)})
	}

	// 3. FIFO futex (§3.3): stock unordered wake-up breaks replay.
	for _, fifo := range []bool{true, false} {
		_, p, s, div, err := ftPBZIPRate(seed, func(c *core.Config) {
			c.Kernel.FutexFIFO = fifo
			c.Replication.PanicOnDivergence = false
		}, 100, window/2)
		if err != nil {
			return nil, err
		}
		name := "FIFO futex (paper)"
		if !fifo {
			name = "stock unordered wake"
		}
		rows = append(rows, []string{"futex-order", name,
			fmt.Sprintf("primary %d / secondary %d blocks, %d divergences", p, s, div)})
	}

	// 4. In-flight log buffer: the ring is what separates burst from
	// sustained throughput.
	for _, ring := range []int64{64 << 10, 4 << 20, 32 << 20} {
		rate, _, _, _, err := ftPBZIPRate(seed, func(c *core.Config) { c.Replication.LogRingBytes = ring }, 50, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{"log-ring",
			fmt.Sprintf("%d KiB", ring>>10),
			fmt.Sprintf("%.0f blocks/s sustained @50KB", rate)})
	}

	// 5. Idle-wake (wake_up_process) latency sensitivity (§4.1).
	for _, max := range []time.Duration{0, 15 * time.Millisecond, 50 * time.Millisecond} {
		rate, _, _, _, err := ftPBZIPRate(seed, func(c *core.Config) {
			c.Kernel.IdleWakeMax = max
			if max == 0 {
				c.Kernel.IdleWakeMin = 0
			}
		}, 25, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{"idle-wake",
			fmt.Sprintf("max penalty %v", max),
			fmt.Sprintf("%.0f blocks/s sustained @25KB", rate)})
	}
	return rows, nil
}
