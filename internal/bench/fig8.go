package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// fig8MSS is the GSO-style segment size of the bulk transfer.
const fig8MSS = 32 << 10

// fig8 reproduces Figure 8: downloading a large file over a 1 Gb/s link
// from (a) stock Ubuntu, (b) FT-Linux failure-free and (c) FT-Linux with
// the primary killed mid-transfer. The points are the per-second
// throughput of run (c) — the figure's curve; the ratios summarize all
// three. The client checks every byte against the expected content, and a
// transfer that ends short or corrupted fails the experiment.
func fig8(seed int64, fileSize int64, failAt time.Duration) (Report, error) {
	report := Report{Exp: "fig8", Seed: seed,
		Params: []Label{label("file_bytes", fileSize), label("fail_at", failAt)}}
	scfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: int(fileSize)}
	cfg := core.DefaultConfig(seed)
	cfg.TCP.MSS = fig8MSS
	deadline := sim.Time(10*time.Minute + time.Duration(fileSize/1000)) // generous
	download := func(client *core.Client) *clients.DownloadStats {
		st := &clients.DownloadStats{}
		clients.Download(client, scfg.Port, fileSize, time.Second, st)
		return st
	}
	ft := func(killAt time.Duration) (*clients.DownloadStats, *core.System, error) {
		sys, err := core.New(core.WithSeed(seed), core.WithTCP(cfg.TCP))
		if err != nil {
			return nil, nil, err
		}
		defer sys.Sim.Shutdown()
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			return nil, nil, err
		}
		sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(scfg) }})
		st := download(client)
		if killAt > 0 {
			sys.InjectPrimaryFailure(killAt, hw.CoreFailStop)
		}
		return st, sys, sys.Sim.RunUntil(deadline)
	}

	// Scenario (a): stock Ubuntu.
	ubuntu, err := func() (*clients.DownloadStats, error) {
		base, err := core.NewBaseline(cfg)
		if err != nil {
			return nil, err
		}
		defer base.Sim.Shutdown()
		client, err := base.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			return nil, err
		}
		base.LaunchApp("stream", nil, restream.New(scfg).Main)
		st := download(client)
		return st, base.Sim.RunUntil(deadline)
	}()
	if err != nil {
		return report, err
	}
	linuxMbps := mbps(ubuntu.Received, ubuntu.FinishedAt)

	// Scenario (b): FT-Linux, failure-free.
	free, _, err := ft(0)
	if err != nil {
		return report, err
	}
	ftMbps := mbps(free.Received, free.FinishedAt)

	// Scenario (c): FT-Linux with primary failure mid-transfer.
	fo, sys, err := ft(failAt)
	if err != nil {
		return report, err
	}
	if !fo.Complete || fo.Corrupted {
		return report, fmt.Errorf("bench: fig8: transfer across the failover complete=%v corrupted=%v", fo.Complete, fo.Corrupted)
	}
	if sys.LiveAt <= sys.FailedAt {
		return report, fmt.Errorf("bench: fig8: no backup went live after the failure at %v", sys.FailedAt)
	}
	// Outage: near-zero samples from the failure until throughput has
	// settled, two seconds after promotion. Recovery rate: the bytes
	// received from then until completion over the time they took.
	var outage int
	var recovered int64
	var settledFor time.Duration
	for _, s := range fo.Series {
		report.Points = append(report.Points, Point{
			Labels: []Label{label("t_s", fmt.Sprintf("%.1f", s.At.Seconds()))},
			Values: []Named{val("mbps", s.Mbps(), "Mb/s")},
		})
		if settledFor == 0 && s.At > sys.FailedAt.Add(-time.Second) && s.Bytes < (1<<20) {
			outage++
		}
		if s.At > sys.LiveAt.Add(2*time.Second) {
			recovered += s.Bytes
			settledFor += s.Span
		}
	}
	if recovered == 0 {
		return report, fmt.Errorf("bench: fig8: the transfer ended before throughput settled after the failover")
	}
	report.Ratios = []Named{
		val("linux_mbps", linuxMbps, "Mb/s"),
		val("ft_mbps", ftMbps, "Mb/s"),
		val("ft_pct_of_linux", 100*ftMbps/linuxMbps, "%"),
		val("outage_s", outage, "s"),
		val("driver_reload_pct_of_outage", 100*float64(sys.Cfg.NICDriverLoadTime)/float64(sys.LiveAt.Sub(sys.FailedAt)), "%"),
		val("recovered_mbps", clients.Sample{Span: settledFor, Bytes: recovered}.Mbps(), "Mb/s"),
	}
	return report, nil
}

func mbps(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / elapsed.Seconds() / 1e6
}
