package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

const (
	epochInterval = 250 * time.Millisecond // between checkpoints, when on
	// epochRejoinDelay is how long the freed partition waits before it
	// rejoins. It and the NIC driver reload are trimmed below their
	// deployment defaults so the measured rejoin time is the
	// history-dependent part (transfer + catch-up replay), not fixed
	// reload latency.
	epochRejoinDelay = 500 * time.Millisecond
)

// epoch runs the retention/rejoin sweep: the same streaming workload runs
// for each uptime (ascending), the primary is killed, the freed partition
// rejoins and the run continues for tail
// — once with epoch checkpoints off, where the survivor retains and the
// fresh backup replays the entire history back to boot, and once with
// them on, where both are bounded by the delta since the last
// quorum-verified checkpoint. The ratios are read at the endpoints:
// rejoin_speedup and retention_savings compare off/on at the longest
// uptime, where the legacy path is at its worst; rejoin_growth_off/on are
// each mode's rejoin time at the longest uptime over the shortest (off
// grows with history, on stays near 1), flatness_gain is their quotient,
// and rejoin_flatness_on is 1/rejoin_growth_on — the form in which "on
// stays flat" can be pinned as a floor.
func epoch(seed int64, uptimes []time.Duration, tail time.Duration) (Report, error) {
	report := Report{Exp: "epoch", Seed: seed,
		Params: []Label{label("epoch_interval_ms", epochInterval.Milliseconds())}}
	for _, up := range uptimes {
		for _, epochs := range []string{"off", "on"} {
			p, err := epochPoint(seed, up, epochs == "on", tail)
			if err != nil {
				return report, fmt.Errorf("bench: epoch uptime=%v epochs=%s: %w", up, epochs, err)
			}
			p.Labels = []Label{label("uptime_s", up.Seconds()), label("epochs", epochs)}
			report.Points = append(report.Points, p)
		}
	}
	tMin, tMax := uptimes[0].Seconds(), uptimes[len(uptimes)-1].Seconds()
	d := derive{r: &report}
	rejoin := func(uptime float64, epochs string) float64 {
		return d.v("rejoin_ms", "uptime_s", uptime, "epochs", epochs)
	}
	d.ratio("rejoin_speedup", rejoin(tMax, "off"), rejoin(tMax, "on"))
	d.ratio("retention_savings",
		d.v("retained_tuples_at_kill", "uptime_s", tMax, "epochs", "off"),
		d.v("retained_tuples_at_kill", "uptime_s", tMax, "epochs", "on"))
	growthOff := d.ratio("rejoin_growth_off", rejoin(tMax, "off"), rejoin(tMin, "off"))
	growthOn := d.ratio("rejoin_growth_on", rejoin(tMax, "on"), rejoin(tMin, "on"))
	d.ratio("flatness_gain", growthOff, growthOn)
	d.ratio("rejoin_flatness_on", 1, growthOn)
	return report, d.err
}

func epochPoint(seed int64, uptime time.Duration, epochs bool, tail time.Duration) (Point, error) {
	var point Point
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 16 << 10
	coreOpts := []core.Option{
		core.WithSeed(seed),
		core.WithKernelParams(kp),
		core.WithTCP(tcp),
		func(c *core.Config) { c.NICDriverLoadTime = time.Millisecond },
		core.WithRejoinDelay(epochRejoinDelay),
		core.WithTrace(),
		func(c *core.Config) { c.Chaos = chaos.MustParse(fmt.Sprintf("kill primary @%v", uptime)) },
	}
	if epochs {
		coreOpts = append(coreOpts, core.WithEpochCheckpoints(epochInterval, 0))
	}
	sys, err := core.New(coreOpts...)
	if err != nil {
		return point, err
	}
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.LinkConfig{BitsPerSec: 100e6, Latency: 100 * time.Microsecond})
	if err != nil {
		return point, err
	}
	// The stream total exceeds what the link can carry in any swept run, so
	// sections keep flowing through the kill, the rejoin, and the tail.
	sys.Run(core.App{Name: "stream", State: func() core.AppState {
		return restream.New(restream.Config{Port: 80, Chunk: 64 << 10, Total: 1 << 30})
	}})
	client.Kernel.Spawn("drain", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(tk, 256<<10); err != nil {
				return
			}
		}
	})

	// Retention is sampled on the recording side an instant before the
	// kill: that is the history a promotion inherits and a rejoin ships.
	var retainedTuples int
	var retainedBytes int64
	sys.Sim.Schedule(uptime-time.Millisecond, func() {
		retainedTuples = sys.Active().NS.RetainedTuples()
		retainedBytes = sys.Active().NS.RetainedBytes()
	})

	// Catch-up completion: the first instant the fresh backup, replicated,
	// has replayed up to the live frontier. A chain of replay-head
	// subscriptions, each re-armed at the frontier when it fires, finds it
	// exactly; the fresh backup's first switch-in arms it.
	var caughtAt sim.Time
	var chase func()
	chase = func() {
		bns, seq := sys.Standby().NS, sys.Active().NS.SeqGlobal()
		if head := bns.ReplayHead(); head < seq || sys.State() != core.StateReplicated {
			bns.OnReplayHead(max(seq, head+1), chase)
			return
		}
		caughtAt = sys.Sim.Now()
	}
	sys.Sim.OnSwitch = func(_ sim.Time, proc string) {
		if strings.HasPrefix(proc, "backup.g1/") {
			sys.Sim.OnSwitch = nil
			sys.Sim.Schedule(0, chase)
		}
	}
	if err := sys.Sim.RunUntil(sim.Time(uptime + epochRejoinDelay + tail)); err != nil {
		return point, err
	}
	if err := sys.RejoinErr(); err != nil {
		return point, fmt.Errorf("rejoin: %w", err)
	}
	if sys.State() != core.StateReplicated {
		return point, fmt.Errorf("end state %v, want replicated", sys.State())
	}

	var started sim.Time
	for _, ev := range sys.Obs.Events() {
		if ev.Kind == obs.ResyncStart && started == 0 {
			started = ev.At
		}
	}
	if started == 0 || caughtAt == 0 || caughtAt < started {
		return point, fmt.Errorf("rejoin incomplete (resync-start=%v caught-up=%v)", started, caughtAt)
	}
	// The stop-the-world cut pause exists only with epochs on, and then
	// every cut samples it.
	var pause obs.HistogramSnap
	if epochs {
		if pause, err = histogram(sys.Obs.Registry().Snapshot(), "ftns.epoch.pause", false); err != nil {
			return point, err
		}
	}
	active, standby := sys.Active().NS.Stats(), sys.Standby().NS.Stats()
	point.Values = []Named{
		// Rejoin cost: resync-start until the fresh backup's replay head
		// first reaches the survivor's live frontier (resync-done only
		// marks the catch-up transfer draining; the backup still owes the
		// replay work, 58 us per tuple, before it could cover a second
		// failure), and the log messages it consumed along the way.
		val("rejoin_ms", ms(caughtAt.Sub(started)), "ms"),
		val("catchup_messages", standby.LogMessages, "msgs"),
		val("retained_tuples_at_kill", retainedTuples, "tuples"),
		val("retained_bytes_at_kill", retainedBytes, "B"),
		val("epoch_cuts", active.EpochCuts, "count"),
		val("pause_p90_ns", pause.P90, "ns"),
		val("divergences", active.Divergences+standby.Divergences, "count"),
	}
	return point, nil
}
