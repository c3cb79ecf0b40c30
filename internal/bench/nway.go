package bench

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// NWayPoint is one (replicas, quorum) cell of the replica-set sweep. Every
// point runs the same lock-section workload on a full core deployment with
// one backup's log link lagged by a fixed per-transfer delay, so its receipt
// watermark trails the rest of the set. The commit-wait distribution then
// shows whether that laggard sits on the output-commit path: under the
// all-replicas rule every OnStable waits out the lag; under a majority
// quorum (at N >= 3) the faster backups' receipts release output and the
// laggard only matters for failover coverage.
type NWayPoint struct {
	Replicas int    `json:"replicas"`
	Quorum   int    `json:"quorum"`
	Rule     string `json:"rule"` // "majority" or "all"

	// Workload invariants (identical across quorum settings).
	Sections uint64 `json:"sections"` // det sections recorded
	Commits  uint64 `json:"commits"`  // output-commit (OnStable) requests

	// Output-commit latency on the primary.
	CommitWaitMean int64 `json:"commit_wait_mean_ns"`
	CommitWaitP50  int64 `json:"commit_wait_p50_ns"`
	CommitWaitP90  int64 `json:"commit_wait_p90_ns"`

	LiveBackups int     `json:"live_backups"`
	Divergences uint64  `json:"divergences"`
	SimMS       float64 `json:"sim_ms"`       // simulated completion time
	WallClockMS float64 `json:"wallclock_ms"` // host time to run the point
}

// NWayReport is the checked-in BENCH_nway.json shape: the sweep points plus
// the headline ratio the acceptance gate reads — mean commit wait at N=3
// under the all-replicas rule versus the majority quorum, over the same
// lagged link. Above 1 means the quorum rule keeps the laggard off the
// output-commit path.
type NWayReport struct {
	LagUS  int64       `json:"laggard_lag_us"`
	Points []NWayPoint `json:"points"`

	CommitWaitSpeedupN3 float64 `json:"commit_wait_speedup_n3"`
}

// NWayOpts bounds the per-point workload.
type NWayOpts struct {
	Seed        int64
	Replicas    []int         // replica-set sizes to sweep
	Threads     int           // app threads per replica
	Iters       int           // lock/unlock iterations per thread
	CommitEvery int           // OnStable every N iterations per thread
	Lag         time.Duration // per-transfer delivery lag on one backup's log link
}

// DefaultNWayOpts sweeps N=2..5 with a 300us laggard — far above the
// shared-memory fabric's native transfer latency, so the quorum-versus-all
// split dominates every other latency term in the commit wait.
func DefaultNWayOpts() NWayOpts {
	return NWayOpts{
		Seed:        1,
		Replicas:    []int{2, 3, 4, 5},
		Threads:     4,
		Iters:       400,
		CommitEvery: 4,
		Lag:         300 * time.Microsecond,
	}
}

// majority is the default quorum core picks for an n-replica set.
func majority(n int) int { return (n + 2) / 2 }

// laggedLogRing names the log ring of the highest backup slot — the link
// the sweep lags. Slot 1 keeps the legacy unsuffixed name; higher slots
// carry the ".r<slot>" suffix.
func laggedLogRing(n int) string {
	if n == 2 {
		return "ftns.log"
	}
	return "ftns.log.r" + strconv.Itoa(n-1)
}

// NWay runs the replica-set sweep: for every set size, the same workload is
// committed under the majority quorum and under the all-replicas rule (one
// point where they coincide, as at N=2), always with the last backup's log
// deliveries lagged. The headline ratio compares the two rules at N=3.
func NWay(opts NWayOpts) (NWayReport, error) {
	report := NWayReport{LagUS: opts.Lag.Microseconds()}
	for _, n := range opts.Replicas {
		quorums := []int{majority(n)}
		if n > majority(n) {
			quorums = append(quorums, n)
		}
		for _, q := range quorums {
			p, err := nwayPoint(n, q, opts)
			if err != nil {
				return report, fmt.Errorf("bench: nway n=%d q=%d: %w", n, q, err)
			}
			report.Points = append(report.Points, p)
		}
	}
	base, all := report.find(3, majority(3)), report.find(3, 3)
	if base != nil && all != nil {
		report.CommitWaitSpeedupN3 = ratio(all.CommitWaitMean, base.CommitWaitMean)
	}
	return report, nil
}

// find returns the point at (replicas, quorum), or nil.
func (r *NWayReport) find(replicas, quorum int) *NWayPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Replicas == replicas && p.Quorum == quorum {
			return p
		}
	}
	return nil
}

// nwayApp is the sweep workload: Threads threads each looping Iters times
// over think/lock/hold/unlock, requesting an output commit every CommitEvery
// iterations right after the unlock — while the tuples from the just-closed
// section are still in flight on the backup links, so the commit-wait
// histogram measures the receipt-watermark round trip under the configured
// quorum rule rather than an already-drained log.
func nwayApp(opts NWayOpts, done *int, doneAt *sim.Time) func(*replication.Thread, *tcprep.Sockets) {
	return func(root *replication.Thread, _ *tcprep.Sockets) {
		lib := root.Lib()
		mu := lib.NewMutex()
		locks := make([]*pthread.Mutex, opts.Threads)
		for i := range locks {
			locks[i] = lib.NewMutex()
		}
		var threads []*replication.Thread
		for i := 0; i < opts.Threads; i++ {
			own := locks[i]
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				t := th.Task()
				for j := 0; j < opts.Iters; j++ {
					think := time.Duration(50+t.Kernel().Sim().Rand().Intn(100)) * time.Microsecond
					t.Compute(think)
					own.Lock(t)
					t.Compute(2 * time.Microsecond)
					own.Unlock(t)
					if j%8 == 3 { // occasional cross-thread contention
						mu.Lock(t)
						mu.Unlock(t)
					}
					if opts.CommitEvery > 0 && (j+1)%opts.CommitEvery == 0 {
						th.NS().OnStable(func() {})
					}
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
		*done++
		*doneAt = root.Task().Now()
	}
}

func nwayPoint(n, q int, opts NWayOpts) (NWayPoint, error) {
	rule := "majority"
	if q == n {
		rule = "all"
	}
	point := NWayPoint{Replicas: n, Quorum: q, Rule: rule}
	start := time.Now()

	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0 // exact per-point latency distributions
	sys, err := core.New(
		core.WithSeed(opts.Seed),
		core.WithKernelParams(kp),
		core.WithReplicaSet(n),
		core.WithQuorum(q),
		core.WithRejoin(false),
	)
	if err != nil {
		return point, err
	}
	defer sys.Sim.Shutdown()

	lagged := laggedLogRing(n)
	found := false
	for _, r := range sys.Fabric.Rings() {
		if r.Name() == lagged {
			r.SetChaosHook(func([]shm.Message) shm.ChaosVerdict {
				return shm.ChaosVerdict{Delay: opts.Lag}
			})
			found = true
			break
		}
	}
	if !found {
		return point, fmt.Errorf("log ring %q not found", lagged)
	}

	var done int
	var doneAt sim.Time
	sys.Run(core.App{Name: "nway", Main: nwayApp(opts, &done, &doneAt)})
	if err := sys.Sim.RunUntil(sim.Time(time.Minute)); err != nil {
		return point, err
	}
	if done != n {
		return point, fmt.Errorf("workload incomplete: %d of %d replicas finished", done, n)
	}

	point.Sections = sys.Active().NS.SeqGlobal()
	point.LiveBackups = len(sys.Backups())
	for _, b := range sys.Backups() {
		point.Divergences += b.NS.Stats().Divergences
	}
	point.SimMS = float64(doneAt) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	for _, h := range sys.Obs.Registry().Snapshot().Histograms {
		if h.Name == "ftns.commit.wait" && h.Count > 0 {
			point.Commits = uint64(h.Count)
			point.CommitWaitMean = h.Sum / h.Count
			point.CommitWaitP50, point.CommitWaitP90 = h.P50, h.P90
		}
	}
	if point.Commits == 0 {
		return point, fmt.Errorf("no ftns.commit.wait samples")
	}
	return point, nil
}
