package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// fabricBatch is the batch of the thread sweep; the batch sweep is taken
// at headlineThreads.
const (
	fabricBatch      = 8
	fabricRawBatches = 200 // batched sends per producer, raw workload
)

// The thread counts of the thread sweep, and the batch sizes swept at
// headlineThreads, which bracket fabricBatch from both sides.
var (
	fabricThreads = []int{1, 2, 4, 8}
	fabricBatches = []int{1, 4, 16, 32}
)

// fabricWorkload is one replicated regime of the sweep.
type fabricWorkload struct {
	loop      func(threads int) lockLoop
	ringBytes int64
	detShards int
}

var fabricWorkloads = map[string]fabricWorkload{
	// Tight emission into an ample ring, sections spread over four det
	// shards, no output commits: at 8 threads a 32-tuple batch fills well
	// inside the flush deadline, so the batch size — not the deadline —
	// decides the transfer count, and nothing ever stalls. Acks keep pace
	// with delivery and every flush observes low lag.
	"burst": {
		loop: func(threads int) lockLoop {
			return lockLoop{threads: threads, locks: threads, iters: 150,
				think: thinkNS(10*time.Microsecond, 10*time.Microsecond)}
		},
		ringBytes: 2 << 20,
		detShards: 4,
	},
	// Sustained overload at one det shard: the serial replay dispatch
	// consumes the bounded ring slower than 8 threads fill it, so delivery
	// — and with it the receipt ack stream — waits on the backup, every
	// strict commit stalls on the backlog, and flush lag rides the full
	// ring. How many TUPLES the ring holds is set by the batch size
	// (64-byte headers amortize across a batch), which is exactly the
	// backlog depth each commit waits out.
	"sustained": {
		loop: func(threads int) lockLoop {
			return lockLoop{threads: threads, locks: threads, iters: 200,
				think: thinkNS(100*time.Microsecond, 100*time.Microsecond), commitEvery: 8}
		},
		ringBytes: boundedLogRing,
		detShards: 1,
	},
}

// fabric runs the shared-memory fabric sweep over the reserve/commit MPSC
// path (claims are FIFO tickets, publication is one release-store, senders
// only ever block on ring capacity). It measures the raw producer scaling
// curve, then each replicated workload across the thread counts at
// fabricBatch and across the batch sizes at headlineThreads.
func fabric(seed int64, _ bool) (Report, error) {
	const at = headlineThreads
	report := Report{Exp: "fabric", Seed: seed,
		Params: []Label{label("batch_tuples", fabricBatch), label("measured_at_threads", at)}}
	add := func(p Point, err error) error {
		if err != nil {
			return fmt.Errorf("bench: fabric %v: %w", p.Labels, err)
		}
		report.Points = append(report.Points, p)
		return nil
	}
	for _, threads := range fabricThreads {
		if err := add(fabricRawPoint(seed, threads)); err != nil {
			return report, err
		}
	}
	for _, workload := range []string{"burst", "sustained"} {
		for _, threads := range fabricThreads {
			if err := add(fabricPoint(seed, workload, threads, fabricBatch)); err != nil {
				return report, err
			}
		}
		for _, b := range fabricBatches {
			if err := add(fabricPoint(seed, workload, at, b)); err != nil {
				return report, err
			}
		}
	}
	return report, nil
}

// fabricCell is what one point measured: st is the measured ring; the
// rest stays zero on the raw workload, which has no recorder.
type fabricCell struct {
	st                          shm.Stats
	sections, divergences       uint64
	commit, shardWait, flushLag obs.HistogramSnap
	finished                    sim.Time
}

func (c fabricCell) values() []Named {
	msgPerTuple := 0.0
	if c.st.Payloads > 0 {
		msgPerTuple = float64(c.st.Messages) / float64(c.st.Payloads)
	}
	return []Named{
		val("sections", c.sections, "count"),
		val("tuples", c.st.Payloads, "tuples"), // payloads through the measured ring
		val("messages", c.st.Messages, "msgs"),
		val("bytes", c.st.Bytes, "B"), // incl. per-transfer headers
		val("msg_per_tuple", msgPerTuple, "msgs/tuple"),
		// Sender blocking on the measured ring: total virtual time senders
		// spent parked on capacity backpressure, and the parks.
		val("send_wait_ms", ms(c.st.SendWaitNs), "ms"),
		val("reserve_waits", c.st.ReserveWaits, "count"),
		val("commit_wait_p50_ns", c.commit.P50, "ns"),
		val("commit_wait_p90_ns", c.commit.P90, "ns"),
		val("shard_wait_p50_ns", c.shardWait.P50, "ns"),
		val("flush_lag_p50_tuples", c.flushLag.P50, "tuples"),
		val("divergences", c.divergences, "count"),
		val("sim_ms", ms(c.finished), "ms"),
	}
}

// fabricRawPoint measures the fabric alone: threads producer processes
// each push fabricRawBatches batches of fabricBatch 64-byte payloads into
// one ample ring on a fixed cadence — no recorder in the way — while a
// drain process consumes at ring speed. The reservation path pays nothing
// on an uncontended, uncapped ring, so every producer must be admitted
// without parking (the locked-copy sender it replaced blocked 69 ms over
// 1599 parks on this cell; see EXPERIMENTS.md).
func fabricRawPoint(seed int64, threads int) (Point, error) {
	point := Point{Labels: []Label{label("workload", "raw"), label("threads", threads), label("batch_tuples", fabricBatch)}}
	sys, err := boot(seed)
	if err != nil {
		return point, err
	}
	defer sys.Sim.Shutdown()
	ring := sys.Fabric.NewRing("raw", 0, 1<<20)

	const gap = 20 * time.Microsecond
	total := threads * fabricRawBatches * fabricBatch
	got := 0
	sys.Sim.Spawn("drain", func(p *sim.Proc) {
		var buf []shm.Message
		for got < total {
			buf = ring.RecvBatchInto(p, buf[:0], 0)
			got += len(buf)
		}
	})
	for i := 0; i < threads; i++ {
		sys.Sim.Spawn("producer", func(p *sim.Proc) {
			batch := make([]shm.Message, fabricBatch)
			for j := range batch {
				batch[j] = shm.Message{Kind: 1, Size: 64}
			}
			for b := 0; b < fabricRawBatches; b++ {
				ring.SendBatch(p, batch)
				p.Sleep(gap)
			}
		})
	}
	if err := sys.Sim.Run(); err != nil { // ends with the last producer's last sleep
		return point, err
	}
	if got < total {
		return point, fmt.Errorf("workload incomplete: %d of %d payloads drained at %v", got, total, sys.Sim.Now())
	}
	point.Values = fabricCell{st: ring.Stats(), finished: sys.Sim.Now()}.values()
	return point, nil
}

func fabricPoint(seed int64, workload string, threads, batch int) (Point, error) {
	point := Point{Labels: []Label{label("workload", workload), label("threads", threads), label("batch_tuples", batch)}}
	wl := fabricWorkloads[workload]
	loop := wl.loop(threads)
	opts := []core.Option{core.WithDetShards(wl.detShards), func(c *core.Config) {
		c.Replication.LogRingBytes, c.Replication.BatchTuples = wl.ringBytes, batch
	}}
	run, err := runSweep(seed, core.App{Name: "fabric", Main: loop.run}, nil, opts...)
	if err != nil {
		return point, err
	}
	cell := fabricCell{
		st: run.log.Stats(), sections: run.sys.Primary.NS.SeqGlobal(), divergences: run.sys.Secondary.NS.Stats().Divergences, finished: run.finished,
		// A workload that never commits has no commit waits; a batch of
		// one never sees a lagging flush.
		commit:    run.hist("ftns.commit.wait", loop.commitEvery == 0),
		shardWait: run.hist("ftns.shard.wait", false),
		flushLag:  run.hist("ftns.flush.lag", true),
	}
	point.Values = cell.values()
	return point, run.err
}
