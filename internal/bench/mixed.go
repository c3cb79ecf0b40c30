package bench

import (
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// MixedResult is the §4.3 experiment: a replicated Mongoose (5 concurrent
// requests) sharing the 32-core primary with a non-replicated CPU-intensive
// application that would occupy all cores by itself, against Ubuntu running
// the same mix. The paper reports 760 vs 700 req/s (91%) and 1.3 vs 1.4 ms
// latency (+8%).
type MixedResult struct {
	UbuntuRPS  float64
	FTRPS      float64
	PctRPS     float64
	UbuntuLat  time.Duration
	FTLat      time.Duration
	PctLatency float64
}

// MixedOpts bound the experiment.
type MixedOpts struct {
	Seed   int64
	Window time.Duration
}

// DefaultMixedOpts measures over 8 s.
func DefaultMixedOpts() MixedOpts { return MixedOpts{Seed: 1, Window: 8 * time.Second} }

// cpuHog spawns one non-replicated spinner per core on the kernel.
func cpuHog(k *kernel.Kernel) {
	for i := 0; i < k.Cores(); i++ {
		k.Spawn("hog", func(t *kernel.Task) {
			for {
				t.Compute(time.Hour)
			}
		})
	}
}

// Mixed reproduces §4.3. FT-Linux runs a 32-core primary partition next to
// a single-core secondary partition.
func Mixed(opts MixedOpts) (MixedResult, error) {
	var res MixedResult
	mcfg := mongoose.DefaultConfig()
	abcfg := clients.ABConfig{
		Port:          mcfg.Port,
		Concurrency:   5,
		ResponseBytes: mongoose.PageSize(mcfg),
		Duration:      opts.Window,
		WarmUp:        opts.Window / 4,
	}
	measured := opts.Window - opts.Window/4

	// Ubuntu: same benchmark on 32 cores.
	base, err := core.NewBaseline(core.DefaultConfig(opts.Seed))
	if err != nil {
		return res, err
	}
	defer base.Sim.Shutdown()
	bclient, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return res, err
	}
	var bst mongoose.Stats
	base.LaunchApp("mongoose", nil, func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &bst)
	})
	cpuHog(base.Kernel)
	var bab clients.ABStats
	clients.RunAB(bclient, abcfg, &bab)
	if err := base.Sim.RunUntil(sim.Time(opts.Window + time.Second)); err != nil {
		return res, err
	}
	res.UbuntuRPS = bab.Throughput(measured)
	res.UbuntuLat = bab.MeanLatency()

	// FT-Linux: 32-core primary, single-core secondary partition (§4.3).
	sys, err := core.New(core.WithSeed(opts.Seed), core.WithRejoin(false),
		core.WithPlacement([][]int{{0, 1, 2, 3}, {4}}), core.WithCores(0, 1))
	if err != nil {
		return res, err
	}
	defer sys.Sim.Shutdown()
	fclient, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return res, err
	}
	var fst mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &fst)
	}})
	// The CPU hog runs OUTSIDE the FT-Namespace on the primary only.
	cpuHog(sys.Primary.Kernel)
	var fab clients.ABStats
	clients.RunAB(fclient, abcfg, &fab)
	if err := sys.Sim.RunUntil(sim.Time(opts.Window + time.Second)); err != nil {
		return res, err
	}
	res.FTRPS = fab.Throughput(measured)
	res.FTLat = fab.MeanLatency()
	if res.UbuntuRPS > 0 {
		res.PctRPS = 100 * res.FTRPS / res.UbuntuRPS
	}
	if res.UbuntuLat > 0 {
		res.PctLatency = 100 * (float64(res.FTLat)/float64(res.UbuntuLat) - 1)
	}
	return res, nil
}
