package bench

import (
	"fmt"

	"repro/internal/core"
)

// The per-object sequencing sweep compares one det shard against
// detShards, and reads its headline ratios at headlineThreads — where the
// batching sweep reads commit latency, and where critpath attributes.
const (
	detShards       = 4
	headlineThreads = 8
)

// detShardLoop is the sweep's workload: 200 rounds per thread with an
// output commit every 8. ~150 us of think time per round is slow enough
// that sharded replay dispatch keeps pace with an 8-thread producer and
// fast enough that single-shard dispatch cannot — the regime where
// sharding is the difference between replay keeping up and falling behind.
func detShardLoop(threads, locks int) lockLoop {
	return lockLoop{threads: threads, locks: locks, iters: 200, think: thinkUS(100, 100), commitEvery: 8}
}

// boundedLogRing is the log ring the commit-latency cells run on: a few
// hundred slots, not the default 2 MB. That is what makes output commit
// visible: receipt acks ride ring delivery, so with an effectively
// unbounded ring every commit waits one round trip no matter how far
// replay is behind. Bounded, delivery waits on the backup CONSUMING slots
// — at one det shard at the serial 58 us dispatch rate, sharded at ring
// speed.
const boundedLogRing = 16 << 10

// boundedRing runs a sweep at the given det shards over the bounded ring.
func boundedRing(shards int) core.Option {
	return func(c *core.Config) { c.Replication.DetShards, c.Replication.LogRingBytes = shards, boundedLogRing }
}

// detShard runs the per-object sequencing sweep: for every thread count
// and both workloads — "shared" contends every thread on one mutex, so
// sharding cannot help and must not hurt; "independent" gives each thread
// its own, the case a namespace-global mutex serializes for no reason —
// the same app is recorded and replayed at one det shard and at
// detShards, and the commit-wait and replay-lag distributions compared.
func detShard(seed int64, _ bool) (Report, error) {
	report := Report{Exp: "detshard", Seed: seed, Params: []Label{
		label("shards", detShards), label("measured_at_threads", headlineThreads),
		label("iters", 200), label("commit_every", 8), label("log_ring_bytes", boundedLogRing)}}
	for _, threads := range []int{1, 2, 4, 8, 16} {
		for _, workload := range []string{"shared", "independent"} {
			for _, shards := range []int{1, detShards} {
				p, err := detShardPoint(seed, threads, shards, workload)
				if err != nil {
					return report, fmt.Errorf("bench: detshard %s %dt/%ds: %w", workload, threads, shards, err)
				}
				report.Points = append(report.Points, p)
			}
		}
	}
	d := derive{r: &report}
	ind := func(name string, shards int) float64 {
		return d.v(name, "workload", "independent", "threads", headlineThreads, "shards", shards)
	}
	d.ratio("commit_wait_p50_speedup", ind("commit_wait_p50_ns", 1), ind("commit_wait_p50_ns", detShards))
	d.ratio("replay_lag_p50_speedup", ind("replay_lag_p50_tuples", 1), ind("replay_lag_p50_tuples", detShards))
	return report, d.err
}

// detShardRun runs one cell of the sweep; opts tune it beyond its det
// shards and bounded ring (the batching sweep passes its batch size).
func detShardRun(seed int64, threads, shards int, workload string, opts ...core.Option) (*sweepRun, error) {
	locks := threads
	if workload == "shared" {
		locks = 1
	}
	app := core.App{Name: "detshard", Main: detShardLoop(threads, locks).run}
	return runSweep(seed, app, sampleLag, append([]core.Option{boundedRing(shards)}, opts...)...)
}

func detShardPoint(seed int64, threads, shards int, workload string) (Point, error) {
	run, err := detShardRun(seed, threads, shards, workload)
	if err != nil {
		return Point{}, err
	}
	commit, lag, shardWait := run.hist("ftns.commit.wait", false), run.hist("replay.lag.sampled", false), run.hist("ftns.shard.wait", false)
	return Point{
		Labels: []Label{label("workload", workload), label("threads", threads), label("shards", shards)},
		Values: []Named{
			val("sections", run.sys.Primary.NS.SeqGlobal(), "count"),
			val("tuples", run.log.Delivered(), "tuples"),
			// Output-commit latency on the primary: from an OnStable request
			// until every tuple sent so far is acknowledged.
			val("commit_wait_p50_ns", commit.P50, "ns"),
			val("commit_wait_p90_ns", commit.P90, "ns"),
			val("replay_lag_p50_tuples", lag.P50, "tuples"),
			val("replay_lag_max_tuples", lag.Max, "tuples"),
			// Sequencer-lock contention on the record path.
			val("shard_wait_p50_ns", shardWait.P50, "ns"),
			val("divergences", run.sys.Secondary.NS.Stats().Divergences, "count"),
			val("sim_ms", ms(run.finished), "ms"),
		},
	}, run.err
}
