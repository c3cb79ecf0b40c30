package bench

import (
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// MongoosePoint is one CPU-load step of Figures 6 and 7.
type MongoosePoint struct {
	Step        int           // x-axis: each increment doubles the CPU load
	CPULoad     time.Duration // per-request computation
	Ubuntu      float64       // req/s
	FTBurst     float64       // req/s during the initial burst
	FTSustained float64       // req/s at steady state
	PctOfUbuntu float64
	MsgPerSec   float64 // Fig. 7
	BytesPerSec float64 // Fig. 7
}

// MongooseOpts bound the per-step simulated work.
type MongooseOpts struct {
	Seed        int64
	Steps       int // number of CPU-load doublings (paper sweeps ~9)
	BaseLoad    time.Duration
	Concurrency int
	Window      time.Duration
}

// DefaultMongooseOpts matches §4.2: 10 KB page, 100 parallel connections,
// 32 worker threads, CPU load doubling per step.
func DefaultMongooseOpts() MongooseOpts {
	return MongooseOpts{Seed: 1, Steps: 9, BaseLoad: 100 * time.Microsecond, Concurrency: 100, Window: 8 * time.Second}
}

// Mongoose reproduces Figures 6 and 7.
func Mongoose(opts MongooseOpts) ([]MongoosePoint, error) {
	var points []MongoosePoint
	for step := 0; step < opts.Steps; step++ {
		p, err := mongoosePoint(step, opts)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

func mongoosePoint(step int, opts MongooseOpts) (MongoosePoint, error) {
	load := opts.BaseLoad * (1 << step)
	point := MongoosePoint{Step: step, CPULoad: load}
	mcfg := mongoose.DefaultConfig()
	mcfg.CPULoad = load

	abcfg := clients.ABConfig{
		Port:          mcfg.Port,
		Concurrency:   opts.Concurrency,
		ResponseBytes: mongoose.PageSize(mcfg),
		Duration:      opts.Window,
		WarmUp:        opts.Window / 4,
	}
	measured := opts.Window - opts.Window/4

	// Baseline.
	base, err := core.NewBaseline(core.DefaultConfig(opts.Seed))
	if err != nil {
		return point, err
	}
	defer base.Sim.Shutdown()
	bclient, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return point, err
	}
	var bst mongoose.Stats
	base.LaunchApp("mongoose", nil, func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &bst)
	})
	var bab clients.ABStats
	clients.RunAB(bclient, abcfg, &bab)
	if err := base.Sim.RunUntil(sim.Time(opts.Window + time.Second)); err != nil {
		return point, err
	}
	point.Ubuntu = bab.Throughput(measured)

	// FT-Linux. Per-update streaming, as in the paper's prototype: Figure
	// 7's traffic counts are only comparable without log/sync batching.
	sys, err := core.New(core.WithSeed(opts.Seed), core.WithRejoin(false),
		func(c *core.Config) {
			c.Replication.BatchTuples = 1
			c.TCPSync.BatchUpdates = 1
		})
	if err != nil {
		return point, err
	}
	defer sys.Sim.Shutdown()
	fclient, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return point, err
	}
	var fst mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &fst)
	}})
	// Burst: a short separate counter over the first quarter window.
	burstCfg := abcfg
	var fab clients.ABStats
	clients.RunAB(fclient, burstCfg, &fab)
	burstWindow := sim.Time(opts.Window / 4)
	if err := sys.Sim.RunUntil(burstWindow); err != nil {
		return point, err
	}
	burstReqs := fst.Served
	point.FTBurst = float64(burstReqs) / burstWindow.Seconds()
	statsMid := sys.Fabric.Stats()
	if err := sys.Sim.RunUntil(sim.Time(opts.Window + time.Second)); err != nil {
		return point, err
	}
	statsEnd := sys.Fabric.Stats()
	point.FTSustained = fab.Throughput(measured)
	point.PctOfUbuntu = 100 * point.FTSustained / point.Ubuntu
	point.MsgPerSec, point.BytesPerSec = trafficRate(statsMid, statsEnd, measured+time.Second)
	return point, nil
}
