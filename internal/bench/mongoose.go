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

// startAB applies the load of every web experiment: concurrency parallel
// connections fetching the server's page for window, the first quarter of
// it warm-up.
func startAB(client *core.Client, mcfg mongoose.Config, concurrency int, window time.Duration) *clients.ABStats {
	var st clients.ABStats
	clients.RunAB(client, clients.ABConfig{
		Port:          mcfg.Port,
		Concurrency:   concurrency,
		ResponseBytes: mongoose.PageSize(mcfg),
		Duration:      window,
		WarmUp:        window / 4,
	}, &st)
	return &st
}

// measured is the part of startAB's window that counts.
func measured(window time.Duration) time.Duration { return window - window/4 }

// baselineMongoose runs Mongoose on stock Ubuntu (one partition's
// resources) under the given load. prepare, if non-nil, sees the booted
// deployment before the clients start.
func baselineMongoose(seed int64, mcfg mongoose.Config, concurrency int, window time.Duration, prepare func(*core.Baseline)) (*clients.ABStats, error) {
	base, err := core.NewBaseline(core.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	defer base.Sim.Shutdown()
	client, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, err
	}
	var st mongoose.Stats
	base.LaunchApp("mongoose", nil, func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &st)
	})
	if prepare != nil {
		prepare(base)
	}
	run := startAB(client, mcfg, concurrency, window)
	if err := base.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
		return nil, err
	}
	return run, nil
}

// ftMongoose boots an FT-Linux deployment serving Mongoose and returns it
// with its client machine, at time zero and with no load yet: the caller
// starts the clients (startAB) and decides how far to run.
func ftMongoose(seed int64, mcfg mongoose.Config, served *mongoose.Stats, opts ...core.Option) (*core.System, *core.Client, error) {
	sys, err := core.New(append([]core.Option{core.WithSeed(seed), core.WithRejoin(false)}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		sys.Sim.Shutdown()
		return nil, nil, err
	}
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, served)
	}})
	return sys, client, nil
}

// mongooseSweep reproduces Figures 6 and 7 (§4.2): a 10 KB page, 100
// parallel connections, 32 worker threads, the per-request CPU load
// doubling from 100 us at each of nine steps (the paper sweeps ~9).
func mongooseSweep(seed int64, quick bool) (Report, error) {
	window := window(quick, 4*time.Second, 8*time.Second)
	report := Report{Exp: "fig6", Seed: seed, Params: []Label{label("window", window)}}
	for step := 0; step < 9; step++ {
		p, err := mongoosePoint(seed, step, 100*time.Microsecond<<step, window)
		if err != nil {
			return report, err
		}
		report.Points = append(report.Points, p)
	}
	return report, nil
}

func mongoosePoint(seed int64, step int, load, window time.Duration) (Point, error) {
	const concurrency = 100
	mcfg := mongoose.DefaultConfig()
	mcfg.CPULoad = load
	base, err := baselineMongoose(seed, mcfg, concurrency, window, nil)
	if err != nil {
		return Point{}, err
	}

	// FT-Linux. Per-update streaming, as in the paper's prototype: Figure
	// 7's traffic counts are only comparable without log/sync batching.
	var served mongoose.Stats
	sys, client, err := ftMongoose(seed, mcfg, &served, func(c *core.Config) {
		c.Replication.BatchTuples = 1
		c.TCPSync.BatchUpdates = 1
	})
	if err != nil {
		return Point{}, err
	}
	defer sys.Sim.Shutdown()
	ft := startAB(client, mcfg, concurrency, window)
	// Burst: requests served over the first quarter window.
	burstWindow := sim.Time(window / 4)
	if err := sys.Sim.RunUntil(burstWindow); err != nil {
		return Point{}, err
	}
	burst := float64(served.Served) / burstWindow.Seconds()
	statsMid := sys.Fabric.Stats()
	if err := sys.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
		return Point{}, err
	}
	msgs, bytes := trafficRate(statsMid, sys.Fabric.Stats(), measured(window)+time.Second)
	ubuntuRPS, ftRPS := base.Throughput(measured(window)), ft.Throughput(measured(window))
	return Point{
		Labels: []Label{label("step", step), label("cpu_load", load)},
		Values: []Named{
			val("ubuntu_req_s", ubuntuRPS, "req/s"),
			val("ft_burst_req_s", burst, "req/s"),
			val("ft_sustained_req_s", ftRPS, "req/s"),
			val("pct_of_ubuntu", 100*ftRPS/ubuntuRPS, "%"),
			val("msg_s", msgs, "msgs/s"), // Fig. 7
			val("mb_s", bytes/1e6, "MB/s"),
		},
	}, nil
}
