// Webserver: run the replicated Mongoose web server under ApacheBench-style
// load and compare it with the stock-Ubuntu baseline — a miniature of the
// paper's §4.2 evaluation.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "webserver:", err)
		os.Exit(1)
	}
}

func run() error {
	mcfg := mongoose.DefaultConfig()
	mcfg.CPULoad = 800 * time.Microsecond
	abcfg := clients.ABConfig{
		Port:          mcfg.Port,
		Concurrency:   100,
		ResponseBytes: mongoose.PageSize(mcfg),
		Duration:      4 * time.Second,
		WarmUp:        time.Second,
	}
	window := abcfg.Duration - abcfg.WarmUp

	// Stock Ubuntu on one partition's resources.
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		return err
	}
	bclient, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}
	var bst mongoose.Stats
	base.LaunchApp("mongoose", nil, func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &bst)
	})
	var bab clients.ABStats
	clients.RunAB(bclient, abcfg, &bab)
	if err := base.Sim.RunUntil(sim.Time(abcfg.Duration + time.Second)); err != nil {
		return err
	}

	// FT-Linux with full-software-stack replication.
	sys, err := core.New(core.WithSeed(1), core.WithRejoin(false))
	if err != nil {
		return err
	}
	fclient, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}
	var fst mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &fst)
	}})
	var fab clients.ABStats
	clients.RunAB(fclient, abcfg, &fab)
	if err := sys.Sim.RunUntil(sim.Time(abcfg.Duration + time.Second)); err != nil {
		return err
	}

	fmt.Printf("Mongoose, 10KB page, %v CPU per request, 100 concurrent connections:\n\n", mcfg.CPULoad)
	fmt.Printf("  ubuntu:   %7.0f req/s   mean latency %v\n", bab.Throughput(window), bab.MeanLatency())
	fmt.Printf("  ft-linux: %7.0f req/s   mean latency %v   (%.1f%% of ubuntu)\n",
		fab.Throughput(window), fab.MeanLatency(),
		100*fab.Throughput(window)/bab.Throughput(window))
	st := sys.Fabric.Stats()
	fmt.Printf("\ninter-replica traffic: %d messages, %.1f MB total\n", st.Messages, float64(st.Bytes)/1e6)
	fmt.Printf("secondary replayed %d sections with %d divergences; %d logical TCP connection records held (one per connection, closed ones included)\n",
		sys.Secondary.NS.Stats().Sections, sys.Secondary.NS.Stats().Divergences, sys.Secondary.TCPSync.Conns())
	return nil
}
