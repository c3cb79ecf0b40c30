package bench

import (
	"fmt"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/sim"
)

// batching is the log-streaming sweep: each workload is recorded and
// replayed at each Config.BatchTuples size, and the mailbox traffic its
// replication log generates is measured end to end, 64-byte slot headers
// included, beside its output-commit latency. The pbzip2 rows are the
// traffic cell: the pbzip2-style det-section workload (48 blocks, 8
// workers, an output commit every 4 written blocks — without commits the
// batching win on the commit path is invisible) through the default ring.
// The detshard rows are the commit-latency cell: detshard's headline cell
// (independent locks, headlineThreads threads, one det shard, the bounded
// log ring), where replay dispatch gates delivery and every strict commit
// waits out the unacked backlog, whose depth in tuples the batch size
// sets. Tuples must not move with the batch size; only how they are
// packed onto the ring may. msg_pct and byte_pct are relative to the
// workload's first size.
func batching(seed int64, _ bool) (Report, error) {
	report := Report{Exp: "batching", Seed: seed, Params: []Label{
		label("blocks", 48), label("workers", 8), label("commit_every", 4),
		label("detshard_threads", headlineThreads), label("log_ring_bytes", boundedLogRing)}}
	base := map[string]*traffic{"pbzip2": {}, "detshard": {}} // each workload's first size
	// Per-tuple streaming (the paper's prototype), the default, and a batch
	// no flush interval ever fills.
	for _, batch := range []int{1, 8, 32} {
		for _, workload := range []string{"pbzip2", "detshard"} {
			p, err := batchPoint(seed, workload, batch, base[workload])
			if err != nil {
				return report, fmt.Errorf("bench: batching %s at %d: %w", workload, batch, err)
			}
			report.Points = append(report.Points, p)
		}
	}
	return report, nil
}

// traffic is what one run put on the det-log and ack rings.
type traffic struct{ msgs, bytes float64 }

// batchPoint runs one workload at one batch size; base is the workload's
// traffic at its first size, which the first call records. blocks is what
// pbzip2 wrote; the detshard loop writes none and reads 0.
func batchPoint(seed int64, workload string, batch int, base *traffic) (Point, error) {
	opt := func(c *core.Config) { c.Replication.BatchTuples = batch }
	var run *sweepRun
	var blocks int
	var finished sim.Time
	var err error
	if workload == "pbzip2" {
		app := pbzip2.DefaultConfig()
		app.Workers = 8
		app.MaxBlocks = 48
		app.CommitEvery = 4
		pbzip, stats := pbzipApp(app)
		if run, err = runSweep(seed, pbzip, nil, opt); err != nil {
			return Point{}, err
		}
		sst := stats[run.sys.Secondary.NS]
		blocks, finished = sst.Blocks, sst.FinishedAt
	} else {
		if run, err = detShardRun(seed, headlineThreads, 1, "independent", opt); err != nil {
			return Point{}, err
		}
		finished = run.finished
	}
	lst, ast := run.log.Stats(), run.acks.Stats()
	sent := traffic{float64(lst.Messages + ast.Messages), float64(lst.Bytes + ast.Bytes)}
	if *base == (traffic{}) {
		*base = sent
	}
	commit := run.hist("ftns.commit.wait", false)
	return Point{
		Labels: []Label{label("batch_tuples", batch), label("workload", workload)},
		Values: []Named{
			val("blocks", blocks, "blocks"),
			val("tuples", run.log.Delivered(), "tuples"),
			val("messages", sent.msgs, "msgs"),    // ring transfers, one header each
			val("log_batches", lst.Batches, ""),   // vectored transfers (>1 tuple)
			val("ack_messages", ast.Messages, ""), // cumulative acks sent by the replayer
			val("bytes", sent.bytes, "B"),         // payload + header bytes
			val("divergences", run.sys.Secondary.NS.Stats().Divergences, "count"),
			val("sim_ms", ms(finished), "ms"),
			val("msg_pct", 100*sent.msgs/base.msgs, "%"),
			val("byte_pct", 100*sent.bytes/base.bytes, "%"),
			val("commit_wait_p50_ns", commit.P50, "ns"),
			val("commit_wait_p90_ns", commit.P90, "ns"),
		},
	}, run.err
}
