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

// FabricPoint is one (mode, workload, threads, batch) cell of the
// shared-memory fabric sweep. Two batch policies are compared on the
// reserve/commit MPSC path (claims are FIFO tickets, publication is one
// release-store, senders only ever block on ring capacity):
//
//   - "lockfree": the static BatchTuples policy.
//   - "adaptive": the AIMD batching controller (Config.AdaptiveBatching)
//     governing the effective batch size.
//
// Three workloads isolate the claims. "raw" hammers one ring with N
// producer processes directly — no recorder in the way — so sender
// blocking is measured alone: the reservation path admits concurrent
// producers without parking (the locked-copy sender it replaced blocked
// 69 ms over 1599 parks on this cell; see EXPERIMENTS.md). "burst" records
// an application emitting at tight spacing through an ample ring with no
// output commits: acks keep pace with
// delivery, every flush observes low lag, and the controller should grow
// toward MaxBatchTuples (fewer, fuller transfers). "sustained" records
// through a bounded ring at one det shard — replay dispatch cannot keep
// pace, so delivery waits on the backup consuming slots, receipt acks lag
// the full ring, and periodic strict commits wait out the unacked
// backlog; the controller should shrink toward the floor, because a big
// static batch only deepens (in tuples) the backlog every commit drains.
type FabricPoint struct {
	Mode        string `json:"mode"`     // "lockfree", "adaptive"
	Workload    string `json:"workload"` // "raw", "burst", "sustained"
	Threads     int    `json:"threads"`
	BatchTuples int    `json:"batch_tuples"` // static batch (adaptive: starting batch)

	Sections uint64 `json:"sections"` // det sections recorded (0 on raw)
	Tuples   int64  `json:"tuples"`   // payloads through the measured ring

	// Measured-ring traffic: transfers, bytes (incl. per-transfer
	// headers), and the coalescing ratio the batch policy achieved.
	Messages    int64   `json:"messages"`
	Bytes       int64   `json:"bytes"`
	MsgPerTuple float64 `json:"msg_per_tuple"`

	// Sender blocking on the measured ring: SendWaitMS is total virtual
	// time senders spent parked on capacity backpressure, ReserveWaits
	// counts the parks.
	SendWaitMS   float64 `json:"send_wait_ms"`
	ReserveWaits int64   `json:"reserve_waits"`

	// Output-commit latency and the sequencer-lock wait on the record
	// path (replicated workloads only; burst runs without commits).
	CommitWaitP50 int64 `json:"commit_wait_p50_ns"`
	CommitWaitP90 int64 `json:"commit_wait_p90_ns"`
	ShardWaitP50  int64 `json:"shard_wait_p50_ns"`
	FlushLagP50   int64 `json:"flush_lag_p50_tuples"`

	// EffBatchEnd is the controller's effective batch size when the run
	// ended (adaptive mode only; 0 otherwise).
	EffBatchEnd int64 `json:"eff_batch_end"`

	Divergences uint64  `json:"divergences"`
	SimMS       float64 `json:"sim_ms"`
	WallClockMS float64 `json:"wallclock_ms"`

	Metrics obs.Snapshot `json:"metrics"`
}

// FabricReport is the checked-in BENCH_fabric.json shape: the sweep points
// plus the headline ratios the acceptance gates read, all taken at
// MeasuredAt threads.
//
// AdaptiveVsBestStatic* compare the adaptive controller against the best
// static BatchTuples found by the batch sweep: on sustained by completion
// time (best static SimMS over adaptive SimMS; ~1 means adaptive matched
// the best hand-tuned setting), on burst by transfer count (best static
// messages over adaptive messages). AdaptiveMsgSavingsBurst is the
// transfer count of the static starting batch over adaptive's — growth
// paying for itself without retuning.
type FabricReport struct {
	MeasuredAt int           `json:"measured_at_threads"`
	Points     []FabricPoint `json:"points"`

	AdaptiveVsBestStaticSustained float64 `json:"adaptive_vs_best_static_sustained"`
	AdaptiveVsBestStaticBurst     float64 `json:"adaptive_vs_best_static_burst"`
	AdaptiveMsgSavingsBurst       float64 `json:"adaptive_msg_savings_burst"`
}

// FabricOpts bounds the fabric sweep.
type FabricOpts struct {
	Seed          int64
	Threads       []int // thread counts for the mode comparison
	StaticBatches []int // static BatchTuples swept at MeasuredAt threads
	BatchTuples   int   // batch used by the mode comparison (and adaptive start)

	RawBatches     int // batched sends per producer, raw workload
	BurstIters     int // iterations per thread, burst workload
	SustainedIters int // iterations per thread, sustained workload
	CommitEvery    int // OnStable cadence on the sustained workload
}

// DefaultFabricOpts sweeps 1..8 threads; the static batch sweep brackets
// the default batch from both sides.
func DefaultFabricOpts() FabricOpts {
	return FabricOpts{
		Seed:           1,
		Threads:        []int{1, 2, 4, 8},
		StaticBatches:  []int{1, 4, 16, 32},
		BatchTuples:    8,
		RawBatches:     200,
		BurstIters:     150,
		SustainedIters: 200,
		CommitEvery:    8,
	}
}

// Fabric runs the fabric and batching sweep: the raw producer scaling
// curve, both batch policies across the thread counts on both replicated
// workloads, then the static batch sweep at MeasuredAt threads that the
// adaptive headline ratios are computed against.
func Fabric(opts FabricOpts) (FabricReport, error) {
	var report FabricReport
	for _, threads := range opts.Threads {
		if threads <= 8 && threads > report.MeasuredAt {
			report.MeasuredAt = threads
		}
	}
	for _, threads := range opts.Threads {
		p, err := fabricRawPoint(threads, opts)
		if err != nil {
			return report, fmt.Errorf("bench: fabric raw %dt: %w", threads, err)
		}
		report.Points = append(report.Points, p)
	}
	for _, workload := range []string{"burst", "sustained"} {
		for _, threads := range opts.Threads {
			for _, mode := range []string{"lockfree", "adaptive"} {
				p, err := fabricPoint(mode, workload, threads, opts.BatchTuples, opts)
				if err != nil {
					return report, fmt.Errorf("bench: fabric %s/%s %dt: %w", mode, workload, threads, err)
				}
				report.Points = append(report.Points, p)
			}
		}
		for _, b := range opts.StaticBatches {
			if b == opts.BatchTuples {
				continue // already measured as the "lockfree" mode point
			}
			p, err := fabricPoint("lockfree", workload, report.MeasuredAt, b, opts)
			if err != nil {
				return report, fmt.Errorf("bench: fabric static b=%d %s: %w", b, workload, err)
			}
			report.Points = append(report.Points, p)
		}
	}

	if ad := report.Find("adaptive", "sustained", report.MeasuredAt, opts.BatchTuples); ad != nil {
		if best := report.bestStatic("sustained", opts, func(p *FabricPoint) float64 { return p.SimMS }); best != nil {
			report.AdaptiveVsBestStaticSustained = best.SimMS / ad.SimMS
		}
	}
	if ad := report.Find("adaptive", "burst", report.MeasuredAt, opts.BatchTuples); ad != nil {
		if best := report.bestStatic("burst", opts, func(p *FabricPoint) float64 { return float64(p.Messages) }); best != nil {
			report.AdaptiveVsBestStaticBurst = float64(best.Messages) / float64(ad.Messages)
		}
		if freeB := report.Find("lockfree", "burst", report.MeasuredAt, opts.BatchTuples); freeB != nil {
			report.AdaptiveMsgSavingsBurst = float64(freeB.Messages) / float64(ad.Messages)
		}
	}
	return report, nil
}

// Find returns the point at (mode, workload, threads, batch), or nil.
func (r *FabricReport) Find(mode, workload string, threads, batch int) *FabricPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Mode == mode && p.Workload == workload && p.Threads == threads && p.BatchTuples == batch {
			return p
		}
	}
	return nil
}

// bestStatic returns the lock-free static point at MeasuredAt threads
// minimizing cost — the strongest hand-tuned competitor on this workload.
func (r *FabricReport) bestStatic(workload string, opts FabricOpts, cost func(*FabricPoint) float64) *FabricPoint {
	var best *FabricPoint
	consider := append([]int{opts.BatchTuples}, opts.StaticBatches...)
	for _, b := range consider {
		p := r.Find("lockfree", workload, r.MeasuredAt, b)
		if p != nil && (best == nil || cost(p) < cost(best)) {
			best = p
		}
	}
	return best
}

// fabricRawPoint measures the fabric alone: threads producer processes
// each push RawBatches batches of BatchTuples 64-byte payloads into one
// ample ring on a fixed cadence while a drain process consumes at ring
// speed. The reservation path pays nothing on an uncontended, uncapped
// ring, so every producer must be admitted without parking.
func fabricRawPoint(threads int, opts FabricOpts) (FabricPoint, error) {
	point := FabricPoint{Mode: "lockfree", Workload: "raw", Threads: threads, BatchTuples: opts.BatchTuples}
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
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	ring := fabric.NewRing("raw", 0, 1<<20)

	const gap = 20 * time.Microsecond
	total := threads * opts.RawBatches * opts.BatchTuples
	got := 0
	s.Spawn("drain", func(p *sim.Proc) {
		var buf []shm.Message
		for got < total {
			buf = ring.RecvBatchInto(p, buf[:0], 0)
			got += len(buf)
		}
	})
	for i := 0; i < threads; i++ {
		s.Spawn("producer", func(p *sim.Proc) {
			batch := make([]shm.Message, opts.BatchTuples)
			for j := range batch {
				batch[j] = shm.Message{Kind: 1, Size: 64}
			}
			for b := 0; b < opts.RawBatches; b++ {
				ring.SendBatch(p, batch)
				p.Sleep(gap)
			}
		})
	}
	if err := s.Run(); err != nil {
		return point, err
	}
	if got != total {
		return point, fmt.Errorf("raw drain incomplete: %d/%d payloads", got, total)
	}

	st := ring.Stats()
	point.Tuples = st.Payloads
	point.Messages = st.Messages
	point.Bytes = st.Bytes
	if st.Payloads > 0 {
		point.MsgPerTuple = float64(st.Messages) / float64(st.Payloads)
	}
	point.SendWaitMS = float64(st.SendWaitNs) / float64(time.Millisecond)
	point.ReserveWaits = st.ReserveWaits
	point.SimMS = float64(s.Now()) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	return point, nil
}

// fabricWorkload parameterizes the per-point replicated application.
type fabricWorkload struct {
	iters       int
	commitEvery int           // 0: no output commits
	thinkMin    time.Duration // per-iteration think floor
	thinkSpan   time.Duration // uniform extra think
	ringBytes   int64         // log ring capacity
	detShards   int
}

func fabricWorkloadFor(workload string, opts FabricOpts) fabricWorkload {
	if workload == "burst" {
		// Tight emission into an ample ring, sections spread over four det
		// shards: at 8 threads a 32-tuple batch fills well inside the
		// flush deadline, so the batch policy — not the deadline — decides
		// the transfer count, and nothing ever stalls.
		return fabricWorkload{
			iters:     opts.BurstIters,
			thinkMin:  10 * time.Microsecond,
			thinkSpan: 10 * time.Microsecond,
			ringBytes: 2 << 20,
			detShards: 4,
		}
	}
	// Sustained overload at one det shard: the serial replay dispatch
	// consumes the bounded ring slower than 8 threads fill it, so
	// delivery — and with it the receipt ack stream — waits on the
	// backup, every strict commit stalls on the backlog, and flush lag
	// rides the full ring. How many TUPLES the 16 KB ring holds is set by
	// the batch size (64-byte headers amortize across a batch), which is
	// exactly the backlog depth each commit waits out.
	return fabricWorkload{
		iters:       opts.SustainedIters,
		commitEvery: opts.CommitEvery,
		thinkMin:    100 * time.Microsecond,
		thinkSpan:   100 * time.Microsecond,
		ringBytes:   16 << 10,
		detShards:   1,
	}
}

// fabricApp is the replicated sweep workload: nThreads threads with
// independent mutexes (sections sequence under distinct objects) looping
// think/lock/unlock, with an optional periodic output commit.
func fabricApp(nThreads int, wl fabricWorkload, st *detShardStats) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		locks := make([]*pthread.Mutex, nThreads)
		for i := range locks {
			locks[i] = lib.NewMutex()
		}
		var threads []*replication.Thread
		for i := 0; i < nThreads; i++ {
			mu := locks[i]
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				t := th.Task()
				for j := 0; j < wl.iters; j++ {
					think := wl.thinkMin
					if wl.thinkSpan > 0 {
						think += time.Duration(t.Kernel().Sim().Rand().Int63n(int64(wl.thinkSpan)))
					}
					t.Compute(think)
					mu.Lock(t)
					t.Compute(2 * time.Microsecond)
					mu.Unlock(t)
					if wl.commitEvery > 0 && (j+1)%wl.commitEvery == 0 {
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

func fabricPoint(mode, workload string, threads, batch int, opts FabricOpts) (FabricPoint, error) {
	point := FabricPoint{Mode: mode, Workload: workload, Threads: threads, BatchTuples: batch}
	start := time.Now()
	wl := fabricWorkloadFor(workload, opts)

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
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		return point, err
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		return point, err
	}

	cfg := replication.DefaultConfig()
	cfg.DetShards = wl.detShards
	cfg.LogRingBytes = wl.ringBytes
	cfg.BatchTuples = batch
	if mode == "adaptive" {
		cfg.AdaptiveBatching = true
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 256<<10)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)

	reg := obs.NewRegistry()
	pns.Instrument(nil, reg)
	sns.Instrument(nil, reg)

	var pst, sst detShardStats
	pns.Start("fabric", nil, fabricApp(threads, wl, &pst))
	sns.Start("fabric", nil, fabricApp(threads, wl, &sst))
	if err := s.Run(); err != nil {
		return point, err
	}
	if !pst.Done || !sst.Done {
		return point, fmt.Errorf("workload incomplete: primary=%v secondary=%v", pst.Done, sst.Done)
	}

	st := log.Stats()
	point.Sections = pns.SeqGlobal()
	point.Tuples = st.Payloads
	point.Messages = st.Messages
	point.Bytes = st.Bytes
	if st.Payloads > 0 {
		point.MsgPerTuple = float64(st.Messages) / float64(st.Payloads)
	}
	point.SendWaitMS = float64(st.SendWaitNs) / float64(time.Millisecond)
	point.ReserveWaits = st.ReserveWaits
	point.Divergences = sns.Stats().Divergences
	point.SimMS = float64(sst.FinishedAt) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	point.Metrics = reg.Snapshot()
	if h, ok := point.Metrics.Histogram("ftns.commit.wait"); ok {
		point.CommitWaitP50, point.CommitWaitP90 = h.P50, h.P90
	}
	if h, ok := point.Metrics.Histogram("ftns.shard.wait"); ok {
		point.ShardWaitP50 = h.P50
	}
	if h, ok := point.Metrics.Histogram("ftns.flush.lag"); ok {
		point.FlushLagP50 = h.P50
	}
	if g, ok := point.Metrics.Gauge("ftns.ctrl.batch"); ok {
		point.EffBatchEnd = g
	}
	return point, nil
}
