package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// BatchPoint is one batch-size configuration of the log-streaming
// microbenchmark: the same pbzip2-style det-section workload is recorded
// and replayed at a given Config.BatchTuples, and the mailbox traffic the
// replication log generates is measured end to end (64-byte slot headers
// included). The workload itself is identical at every point — Blocks and
// Tuples must not change with the batch size; only how the tuples are
// packed onto the ring may.
type BatchPoint struct {
	BatchTuples int `json:"batch_tuples"`

	// Workload invariants (identical across points).
	Blocks int    `json:"blocks"` // pbzip2 blocks completed
	Tuples uint64 `json:"tuples"` // det-log tuples delivered to the backup

	// Mailbox traffic on the log + acks rings.
	Messages    int64 `json:"messages"`     // ring transfers (one header each)
	LogBatches  int64 `json:"log_batches"`  // vectored transfers (>1 tuple)
	AckMessages int64 `json:"ack_messages"` // cumulative acks sent by the replayer
	Bytes       int64 `json:"bytes"`        // payload + header bytes

	Divergences uint64  `json:"divergences"`
	SimMS       float64 `json:"sim_ms"`       // simulated completion time
	WallClockMS float64 `json:"wallclock_ms"` // host time to run the point
	MsgPct      float64 `json:"msg_pct"`      // Messages as % of the first point
	BytePct     float64 `json:"byte_pct"`     // Bytes as % of the first point

	// Metrics is the obs registry snapshot at the end of the point:
	// replay lag, commit-wait percentiles, batch fill levels, and ack
	// counts alongside the raw traffic numbers.
	Metrics obs.Snapshot `json:"metrics"`
}

// BatchSweepOpts bounds the per-point workload.
type BatchSweepOpts struct {
	Seed    int64
	Blocks  int // pbzip2 blocks per point
	Workers int
}

// DefaultBatchSweepOpts keeps each point well under a second of host time
// while still generating several hundred log tuples.
func DefaultBatchSweepOpts() BatchSweepOpts {
	return BatchSweepOpts{Seed: 1, Blocks: 48, Workers: 8}
}

// BatchSweep runs the record/replay pipeline at each Config.BatchTuples
// size over an identical workload and reports the traffic per point, with
// MsgPct/BytePct normalized to the first (typically unbatched) point.
func BatchSweep(sizes []int, opts BatchSweepOpts) ([]BatchPoint, error) {
	var points []BatchPoint
	for _, n := range sizes {
		p, err := batchPoint(n, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: batch sweep at %d: %w", n, err)
		}
		points = append(points, p)
	}
	for i := range points {
		points[i].MsgPct = 100 * float64(points[i].Messages) / float64(points[0].Messages)
		points[i].BytePct = 100 * float64(points[i].Bytes) / float64(points[0].Bytes)
	}
	return points, nil
}

func batchPoint(batch int, opts BatchSweepOpts) (BatchPoint, error) {
	point := BatchPoint{BatchTuples: batch}
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
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0 // exact traffic counts per point
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		return point, err
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		return point, err
	}

	cfg := replication.DefaultConfig()
	cfg.BatchTuples = batch
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 256<<10)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)

	// Metrics only, no event stream: nil scopes keep the hot path at one
	// pointer test per emit, while the registry collects commit-wait and
	// batch-fill distributions for the JSON output.
	reg := obs.NewRegistry()
	pns.Instrument(nil, reg)
	sns.Instrument(nil, reg)
	reg.Gauge("replay.lag", func() int64 {
		return int64(pns.SeqGlobal()) - int64(sns.ReplayHead())
	})

	app := pbzip2.DefaultConfig()
	app.Workers = opts.Workers
	app.MaxBlocks = opts.Blocks
	// Commit every few written blocks so the sweep actually exercises the
	// output-commit path: without it the commit-wait histogram sits at
	// count 0 and the batching win on commit latency is invisible.
	app.CommitEvery = 4
	var pst, sst pbzip2.Stats
	pns.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, app, &pst) })
	sns.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, app, &sst) })
	if err := s.Run(); err != nil {
		return point, err
	}
	if !pst.Done || !sst.Done {
		return point, fmt.Errorf("workload incomplete: primary=%v secondary=%v", pst.Done, sst.Done)
	}

	lst, ast := log.Stats(), acks.Stats()
	point.Blocks = sst.Blocks
	point.Tuples = uint64(log.Delivered())
	point.Messages = lst.Messages + ast.Messages
	point.LogBatches = lst.Batches
	point.AckMessages = ast.Messages
	point.Bytes = lst.Bytes + ast.Bytes
	point.Divergences = sns.Stats().Divergences
	point.SimMS = float64(sst.FinishedAt) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	point.Metrics = reg.Snapshot()
	return point, nil
}
