package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// EpochPoint is one (uptime, epochs on/off) cell of the checkpoint sweep:
// the same streaming workload runs for UptimeS seconds, the primary is
// killed, and the freed partition rejoins. With epochs off the survivor
// retains — and the fresh backup replays — the entire history back to
// boot; with epochs on both are bounded by the delta since the last
// quorum-verified checkpoint.
type EpochPoint struct {
	UptimeS float64 `json:"uptime_s"`
	Epochs  bool    `json:"epochs"`

	// Rejoin cost: resync-start until the fresh backup's replay head first
	// reaches the survivor's live frontier (resync-done only marks the
	// catch-up transfer draining; the backup still owes the replay work,
	// 58 us per tuple, before it could actually cover a second failure),
	// and the log messages it consumed along the way.
	RejoinMS        float64 `json:"rejoin_ms"`
	CatchupMessages uint64  `json:"catchup_messages"`

	// Retention on the recording side, sampled just before the kill.
	RetainedTuplesAtKill int   `json:"retained_tuples_at_kill"`
	RetainedBytesAtKill  int64 `json:"retained_bytes_at_kill"`

	EpochCuts   uint64  `json:"epoch_cuts"`
	PauseP90    int64   `json:"pause_p90_ns"` // stop-the-world cut pause (on runs)
	Divergences uint64  `json:"divergences"`
	WallClockMS float64 `json:"wallclock_ms"`
}

// EpochReport is the checked-in BENCH_epoch.json shape: the sweep points
// plus the headline ratios the acceptance gate reads, all measured at the
// longest uptime — where the epochs-off legacy path is at its worst and a
// flat-in-uptime rejoin matters most.
type EpochReport struct {
	IntervalMS int64        `json:"epoch_interval_ms"`
	Points     []EpochPoint `json:"points"`

	// RejoinSpeedup and RetentionSavings compare off/on at max uptime
	// (above 1 = epochs win). RejoinGrowthOff/On are each mode's rejoin
	// time at max uptime over min uptime: off grows with history,
	// on stays near 1 (flat). FlatnessGain is their quotient.
	RejoinSpeedup    float64 `json:"rejoin_speedup"`
	RetentionSavings float64 `json:"retention_savings"`
	RejoinGrowthOff  float64 `json:"rejoin_growth_off"`
	RejoinGrowthOn   float64 `json:"rejoin_growth_on"`
	FlatnessGain     float64 `json:"flatness_gain"`
}

// EpochOpts bounds the sweep.
type EpochOpts struct {
	Seed     int64
	Uptimes  []time.Duration // kill times, ascending
	Interval time.Duration   // epoch checkpoint interval
	Tail     time.Duration   // run past the rejoin before sampling
}

// DefaultEpochOpts sweeps a 4x uptime range at a 250 ms epoch interval.
// The rejoin delay and NIC driver reload are trimmed below their
// deployment defaults so the measured rejoin time is the history-dependent
// part (transfer + catch-up replay), not fixed reload latency.
func DefaultEpochOpts() EpochOpts {
	return EpochOpts{
		Seed:     1,
		Uptimes:  []time.Duration{4 * time.Second, 8 * time.Second, 16 * time.Second},
		Interval: 250 * time.Millisecond,
		Tail:     4 * time.Second,
	}
}

// Epoch runs the retention/rejoin sweep with epochs off and on at every
// uptime and derives the headline ratios from the endpoints.
func Epoch(opts EpochOpts) (EpochReport, error) {
	report := EpochReport{IntervalMS: opts.Interval.Milliseconds()}
	for _, up := range opts.Uptimes {
		for _, epochs := range []bool{false, true} {
			p, err := epochPoint(up, epochs, opts)
			if err != nil {
				return report, fmt.Errorf("bench: epoch uptime=%v epochs=%v: %w", up, epochs, err)
			}
			report.Points = append(report.Points, p)
		}
	}
	tMin := opts.Uptimes[0].Seconds()
	tMax := opts.Uptimes[len(opts.Uptimes)-1].Seconds()
	offMin, onMin := report.find(tMin, false), report.find(tMin, true)
	offMax, onMax := report.find(tMax, false), report.find(tMax, true)
	if offMax != nil && onMax != nil {
		report.RejoinSpeedup = fratio(offMax.RejoinMS, onMax.RejoinMS)
		report.RetentionSavings = ratio(int64(offMax.RetainedTuplesAtKill), int64(onMax.RetainedTuplesAtKill))
	}
	if offMin != nil && offMax != nil {
		report.RejoinGrowthOff = fratio(offMax.RejoinMS, offMin.RejoinMS)
	}
	if onMin != nil && onMax != nil {
		report.RejoinGrowthOn = fratio(onMax.RejoinMS, onMin.RejoinMS)
	}
	report.FlatnessGain = fratio(report.RejoinGrowthOff, report.RejoinGrowthOn)
	return report, nil
}

// find returns the point at (uptime, epochs), or nil.
func (r *EpochReport) find(uptimeS float64, epochs bool) *EpochPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.UptimeS == uptimeS && p.Epochs == epochs {
			return p
		}
	}
	return nil
}

func fratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func epochPoint(uptime time.Duration, epochs bool, opts EpochOpts) (EpochPoint, error) {
	point := EpochPoint{UptimeS: uptime.Seconds(), Epochs: epochs}
	start := time.Now()

	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 16 << 10
	const rejoinDelay = 500 * time.Millisecond
	coreOpts := []core.Option{
		core.WithSeed(opts.Seed),
		core.WithKernelParams(kp),
		core.WithTCP(tcp),
		core.WithNICDriverLoadTime(time.Millisecond),
		core.WithRejoinDelay(rejoinDelay),
		core.WithTrace(),
	}
	if epochs {
		coreOpts = append(coreOpts, core.WithEpochCheckpoints(opts.Interval, 0))
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
	sys.Sim.Schedule(uptime-time.Millisecond, func() {
		point.RetainedTuplesAtKill = sys.Active().NS.RetainedTuples()
		point.RetainedBytesAtKill = sys.Active().NS.RetainedBytes()
	})
	sys.InjectPrimaryFailure(uptime, hw.CoreFailStop)

	// Catch-up completion: the first instant after the rejoin at which the
	// fresh backup's replay head has reached the (still-advancing) live
	// frontier. Replay drains far faster than the workload records, so a
	// millisecond poll observes the caught-up state reliably.
	var caughtAt sim.Time
	var poll func()
	poll = func() {
		if caughtAt == 0 && sys.State() == core.StateReplicated &&
			sys.Active().NS.SeqGlobal() == sys.Standby().NS.ReplayHead() {
			caughtAt = sys.Sim.Now()
			return
		}
		if caughtAt == 0 {
			sys.Sim.Schedule(time.Millisecond, poll)
		}
	}
	sys.Sim.Schedule(uptime+rejoinDelay, poll)

	if err := sys.Sim.RunUntil(sim.Time(uptime + rejoinDelay + opts.Tail)); err != nil {
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
	point.RejoinMS = float64(caughtAt.Sub(started)) / float64(time.Millisecond)
	point.CatchupMessages = sys.Standby().NS.Stats().LogMessages
	point.EpochCuts = sys.Active().NS.Stats().EpochCuts
	point.Divergences = sys.Active().NS.Stats().Divergences + sys.Standby().NS.Stats().Divergences
	for _, h := range sys.Obs.Registry().Snapshot().Histograms {
		if h.Name == "ftns.epoch.pause" && h.Count > 0 {
			point.PauseP90 = h.P90
		}
	}
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	return point, nil
}
