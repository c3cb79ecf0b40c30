package bench

import (
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/fileserver"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// Fig8Result is the §4.4 failover experiment: downloading a large file
// over a 1 Gb/s link from (a) stock Ubuntu, (b) FT-Linux failure-free, and
// (c) FT-Linux with the primary killed mid-transfer.
type Fig8Result struct {
	UbuntuMbps float64 // steady transfer rate, Linux
	FTMbps     float64 // steady transfer rate, FT-Linux failure-free
	PctFT      float64

	// Failover scenario.
	FailoverSeries  []clients.Sample // per-second received bytes (the Fig. 8 curve)
	OutageSeconds   float64          // time at ~zero throughput around the failure
	RecoveredMbps   float64          // rate after recovery
	DriverShare     float64          // fraction of the outage spent reloading the NIC driver
	Complete        bool             // the client received the entire file
	Corrupted       bool             // any content mismatch
	ConnectionAlive bool             // the TCP connection survived the failover
}

// Fig8Opts bound the experiment.
type Fig8Opts struct {
	Seed     int64
	FileSize int64
	FailAt   time.Duration
	MSS      int // GSO-style segment size for bulk transfer
}

// DefaultFig8Opts uses the paper's 10 GB file with the failure injected
// one third into the transfer.
func DefaultFig8Opts() Fig8Opts {
	return Fig8Opts{Seed: 1, FileSize: 10 << 30, FailAt: 30 * time.Second, MSS: 32 << 10}
}

// QuickFig8Opts is a scaled-down variant for unit benchmarks.
func QuickFig8Opts() Fig8Opts {
	return Fig8Opts{Seed: 1, FileSize: 1 << 30, FailAt: 4 * time.Second, MSS: 32 << 10}
}

func fig8Verify(off int64, data []byte) bool {
	want := make([]byte, len(data))
	fileserver.Fill(want, off)
	for i := range data {
		if data[i] != want[i] {
			return false
		}
	}
	return true
}

// Fig8 reproduces Figure 8.
func Fig8(opts Fig8Opts) (Fig8Result, error) {
	var res Fig8Result
	fcfg := fileserver.DefaultConfig()
	fcfg.FileSize = opts.FileSize

	run := func(replicated bool, failAt time.Duration) (*clients.DownloadStats, *core.System, error) {
		cfg := core.DefaultConfig(opts.Seed)
		cfg.TCP.MSS = opts.MSS
		st := &clients.DownloadStats{}
		deadline := sim.Time(10*time.Minute + time.Duration(opts.FileSize/1000)) // generous
		if !replicated {
			base, err := core.NewBaseline(cfg)
			if err != nil {
				return nil, nil, err
			}
			defer base.Sim.Shutdown()
			client, err := base.AttachNetwork(simnet.GigabitEthernet())
			if err != nil {
				return nil, nil, err
			}
			var fst fileserver.Stats
			base.LaunchApp("fileserver", nil, func(th *replication.Thread, socks *tcprep.Sockets) {
				fileserver.Run(th, socks, fcfg, &fst)
			})
			clients.Download(client, fcfg.Port, opts.FileSize, time.Second, fig8Verify, st)
			if err := base.Sim.RunUntil(deadline); err != nil {
				return nil, nil, err
			}
			return st, nil, nil
		}
		sys, err := core.New(core.WithSeed(opts.Seed), core.WithRejoin(false), core.WithTCP(cfg.TCP))
		if err != nil {
			return nil, nil, err
		}
		defer sys.Sim.Shutdown()
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			return nil, nil, err
		}
		var fst fileserver.Stats
		sys.Run(core.App{Name: "fileserver", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
			fileserver.Run(th, socks, fcfg, &fst)
		}})
		clients.Download(client, fcfg.Port, opts.FileSize, time.Second, fig8Verify, st)
		if failAt > 0 {
			sys.InjectPrimaryFailure(failAt, hw.CoreFailStop)
		}
		if err := sys.Sim.RunUntil(deadline); err != nil {
			return nil, nil, err
		}
		return st, sys, nil
	}

	// Scenario (a): stock Ubuntu.
	ubuntu, _, err := run(false, 0)
	if err != nil {
		return res, err
	}
	res.UbuntuMbps = mbps(ubuntu.Received, ubuntu.FinishedAt)

	// Scenario (b): FT-Linux, failure-free.
	ft, _, err := run(true, 0)
	if err != nil {
		return res, err
	}
	res.FTMbps = mbps(ft.Received, ft.FinishedAt)
	res.PctFT = 100 * res.FTMbps / res.UbuntuMbps

	// Scenario (c): FT-Linux with primary failure mid-transfer.
	fo, sys, err := run(true, opts.FailAt)
	if err != nil {
		return res, err
	}
	res.FailoverSeries = fo.Series
	res.Complete = fo.Complete
	res.Corrupted = fo.Corrupted
	res.ConnectionAlive = fo.Complete // EOF-free completion implies the conn survived
	// Outage: consecutive near-zero samples around the failure.
	outage := 0
	for _, s := range fo.Series {
		if s.At > sys.FailedAt.Add(-time.Second) && s.Bytes < (1<<20) {
			outage++
		}
		if s.At > sys.LiveAt.Add(2*time.Second) {
			break
		}
	}
	res.OutageSeconds = float64(outage)
	if sys.LiveAt > sys.FailedAt {
		res.DriverShare = float64(sys.Cfg.NICDriverLoadTime) / float64(sys.LiveAt.Sub(sys.FailedAt))
	}
	// Recovery rate: samples well after promotion until completion.
	var recovered int64
	var rn int
	for _, s := range fo.Series {
		if s.At > sys.LiveAt.Add(2*time.Second) && s.Bytes > 0 {
			recovered += s.Bytes
			rn++
		}
	}
	if rn > 0 {
		res.RecoveredMbps = float64(recovered) * 8 / float64(rn) / 1e6
	}
	return res, nil
}

func mbps(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds() / 1e6
}
