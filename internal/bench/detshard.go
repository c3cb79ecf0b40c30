package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// DetShardPoint is one (threads, shards, workload) cell of the per-object
// sequencing sweep. The workload is a lock/compute/unlock loop with a
// periodic output commit; "shared" contends every thread on one mutex (all
// sections sequence under one object, so sharding cannot help and must not
// hurt), while "independent" gives each thread its own mutex (sections
// sequence under distinct objects and may record and replay concurrently —
// the case the namespace-global mutex serializes for no reason).
type DetShardPoint struct {
	Threads  int    `json:"threads"`
	Shards   int    `json:"shards"`
	Workload string `json:"workload"` // "shared" or "independent"

	// Workload invariants (identical across shard settings).
	Sections uint64 `json:"sections"` // det sections recorded
	Tuples   uint64 `json:"tuples"`   // log tuples delivered to the backup

	// Output-commit latency on the primary: time from an OnStable request
	// until every tuple sent so far is acknowledged. At one shard the ack
	// stream drains behind the serial replay dispatch; sharded, acks return
	// at ring speed.
	CommitWaitP50 int64 `json:"commit_wait_p50_ns"`
	CommitWaitP90 int64 `json:"commit_wait_p90_ns"`

	// Replay lag (Seq_global minus the backup's Lamport frontier), sampled
	// on a fixed simulated-time cadence while the workload runs.
	ReplayLagP50 int64 `json:"replay_lag_p50_tuples"`
	ReplayLagMax int64 `json:"replay_lag_max_tuples"`

	// Sequencer-lock contention on the record path.
	ShardWaitP50 int64 `json:"shard_wait_p50_ns"`

	Divergences uint64  `json:"divergences"`
	SimMS       float64 `json:"sim_ms"`       // simulated completion time
	WallClockMS float64 `json:"wallclock_ms"` // host time to run the point

	// Metrics is the full obs registry snapshot at the end of the point.
	Metrics obs.Snapshot `json:"metrics"`
}

// DetShardReport is the checked-in BENCH_detshard.json shape: the sweep
// points plus the headline ratios the acceptance gate reads — commit-wait
// p50 and replay-lag p50 at MeasuredAt threads on the independent-locks
// workload, one shard versus Shards.
type DetShardReport struct {
	Shards     int             `json:"shards"`
	MeasuredAt int             `json:"measured_at_threads"`
	Points     []DetShardPoint `json:"points"`

	CommitWaitSpeedup float64 `json:"commit_wait_p50_speedup"`
	ReplayLagSpeedup  float64 `json:"replay_lag_p50_speedup"`
}

// DetShardOpts bounds the per-point workload.
type DetShardOpts struct {
	Seed        int64
	Threads     []int // thread counts to sweep
	Shards      int   // the sharded setting compared against 1
	Iters       int   // lock/unlock iterations per thread
	CommitEvery int   // OnStable every N iterations per thread
}

// DefaultDetShardOpts sweeps 1..16 threads with a workload small enough to
// keep the full sweep (two workloads x two shard settings) interactive.
func DefaultDetShardOpts() DetShardOpts {
	return DetShardOpts{
		Seed:        1,
		Threads:     []int{1, 2, 4, 8, 16},
		Shards:      4,
		Iters:       200,
		CommitEvery: 8,
	}
}

// DetShard runs the per-object sequencing sweep: for every thread count and
// both workloads, the same app is recorded and replayed at one det shard and
// at opts.Shards, and the commit-wait and replay-lag distributions are
// compared. The headline speedups are taken at 8 threads (or the largest
// swept count below that) on the independent-locks workload.
func DetShard(opts DetShardOpts) (DetShardReport, error) {
	report := DetShardReport{Shards: opts.Shards}
	for _, threads := range opts.Threads {
		for _, workload := range []string{"shared", "independent"} {
			for _, shards := range []int{1, opts.Shards} {
				p, err := detShardPoint(threads, shards, workload, opts)
				if err != nil {
					return report, fmt.Errorf("bench: detshard %s %dt/%ds: %w", workload, threads, shards, err)
				}
				report.Points = append(report.Points, p)
			}
		}
	}
	for _, threads := range opts.Threads {
		if threads <= 8 && threads > report.MeasuredAt {
			report.MeasuredAt = threads
		}
	}
	base, wide := report.find(report.MeasuredAt, 1), report.find(report.MeasuredAt, opts.Shards)
	if base != nil && wide != nil {
		report.CommitWaitSpeedup = ratio(base.CommitWaitP50, wide.CommitWaitP50)
		report.ReplayLagSpeedup = ratio(base.ReplayLagP50, wide.ReplayLagP50)
	}
	return report, nil
}

// find returns the independent-locks point at (threads, shards), or nil.
func (r *DetShardReport) find(threads, shards int) *DetShardPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Threads == threads && p.Shards == shards && p.Workload == "independent" {
			return p
		}
	}
	return nil
}

func ratio(base, wide int64) float64 {
	if wide <= 0 {
		wide = 1
	}
	return float64(base) / float64(wide)
}

// detShardStats reports one replica's workload outcome.
type detShardStats struct {
	Done       bool
	FinishedAt sim.Time
}

// detShardApp builds the sweep workload: nThreads threads each looping
// Iters times over think/lock/hold/unlock, committing output every
// CommitEvery iterations right after the unlock — while the tuples from the
// just-finished section are still in flight, so the commit-wait histogram
// measures the force-flush round trip rather than an already-drained log.
func detShardApp(nThreads int, shared bool, opts DetShardOpts, st *detShardStats) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		nLocks := nThreads
		if shared {
			nLocks = 1
		}
		locks := make([]*pthread.Mutex, nLocks)
		for i := range locks {
			locks[i] = lib.NewMutex()
		}
		var threads []*replication.Thread
		for i := 0; i < nThreads; i++ {
			mu := locks[i%nLocks]
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				t := th.Task()
				for j := 0; j < opts.Iters; j++ {
					// ~150 us of think time per iteration: slow enough that
					// N-sharded replay dispatch keeps pace with an 8-thread
					// producer, fast enough that single-shard dispatch cannot
					// — the regime where sharding is the difference between
					// replay keeping up and replay falling behind.
					think := time.Duration(100+t.Kernel().Sim().Rand().Intn(100)) * time.Microsecond
					t.Compute(think)
					mu.Lock(t)
					t.Compute(2 * time.Microsecond)
					mu.Unlock(t)
					if opts.CommitEvery > 0 && (j+1)%opts.CommitEvery == 0 {
						th.NS().OnStable(func() {})
					}
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
		st.Done = true
		st.FinishedAt = root.Task().Now()
	}
}

func detShardPoint(threads, shards int, workload string, opts DetShardOpts) (DetShardPoint, error) {
	point := DetShardPoint{Threads: threads, Shards: shards, Workload: workload}
	start := time.Now()

	s := sim.New(opts.Seed)
	defer s.Shutdown()
	m := hw.New(s, hw.Opteron6376x4())
	pp, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		return point, err
	}
	sp, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		return point, err
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0 // exact per-point latency distributions
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		return point, err
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		return point, err
	}

	cfg := replication.DefaultConfig()
	cfg.DetShards = shards
	// A bounded log buffer (a few hundred slots, not the default 2 MB) is
	// what makes output commit visible: receipt acks ride ring delivery, so
	// with an effectively unbounded ring every commit waits one round trip
	// no matter how far replay is behind. Bounded, delivery waits on the
	// backup CONSUMING slots — which at one det shard happens at the serial
	// 58 us dispatch rate, and sharded at ring speed.
	cfg.LogRingBytes = 16 << 10
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 256<<10)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)

	reg := obs.NewRegistry()
	pns.Instrument(nil, reg)
	sns.Instrument(nil, reg)
	reg.Gauge("replay.lag", func() int64 {
		return int64(pns.SeqGlobal()) - int64(sns.ReplayHead())
	})

	// Sample replay lag on a fixed simulated cadence while either replica
	// is still running; the sampler re-arms itself so the distribution
	// covers the whole run, not just its end state.
	hLag := reg.Histogram("replay.lag.sampled", "tuples")
	var pst, sst detShardStats
	var sample func()
	sample = func() {
		if pst.Done && sst.Done {
			return
		}
		hLag.Observe(int64(pns.SeqGlobal()) - int64(sns.ReplayHead()))
		s.Schedule(100*time.Microsecond, sample)
	}
	s.Schedule(100*time.Microsecond, sample)

	shared := workload == "shared"
	pns.Start("detshard", nil, detShardApp(threads, shared, opts, &pst))
	sns.Start("detshard", nil, detShardApp(threads, shared, opts, &sst))
	if err := s.Run(); err != nil {
		return point, err
	}
	if !pst.Done || !sst.Done {
		return point, fmt.Errorf("workload incomplete: primary=%v secondary=%v", pst.Done, sst.Done)
	}

	point.Sections = pns.SeqGlobal()
	point.Tuples = uint64(log.Delivered())
	point.Divergences = sns.Stats().Divergences
	point.SimMS = float64(sst.FinishedAt) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	point.Metrics = reg.Snapshot()
	if h, ok := point.Metrics.Histogram("ftns.commit.wait"); ok {
		point.CommitWaitP50, point.CommitWaitP90 = h.P50, h.P90
	}
	if h, ok := point.Metrics.Histogram("replay.lag.sampled"); ok {
		point.ReplayLagP50, point.ReplayLagMax = h.P50, h.Max
	}
	if h, ok := point.Metrics.Histogram("ftns.shard.wait"); ok {
		point.ShardWaitP50 = h.P50
	}
	return point, nil
}
