package replication

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pthread"
)

// Instrument attaches an event scope and registers this side's metrics,
// prefixed by the namespace name, once, before the namespace runs; a nil
// scope/registry leaves the side uninstrumented (every emission degrades to
// a pointer test). The recorder traces each tuple's lifecycle and the
// replayer its grants, acks and promotion; either side, each lock-order
// cycle its apps' locks close.
func (ns *Namespace) Instrument(sc *obs.Scope, reg *obs.Registry) {
	ns.lib.OnLockCycle(func(e *pthread.LockOrderError) { sc.EmitNote(obs.LockCycle, 0, int64(len(e.Cycle)-1), 0, e.Error()) })
	switch {
	case ns.rec != nil:
		ns.rec.instrument(ns.name, sc, reg)
	case ns.rep != nil:
		ns.rep.instrument(ns.name, sc, reg)
	}
}

func (r *Recorder) instrument(name string, sc *obs.Scope, reg *obs.Registry) {
	r.sc = sc
	r.cTuples = reg.Counter(name + ".log.tuples")
	r.hCommitWait = reg.Histogram(name+".commit.wait", "ns")
	r.hBatchFill = reg.Histogram(name+".flush.batch", "tuples")
	r.hFlushLag = reg.Histogram(name+".flush.lag", "tuples")
	// Shard-level contention signals: the det-lock wait distribution (the
	// global-mutex contention when DetShards is 1) and per-shard section
	// counts, which expose placement skew across the sharded sequencers.
	r.hShardWait = reg.Histogram(name+".shard.wait", "ns")
	if reg != nil {
		r.cShardSecs = make([]*obs.Counter, len(r.mus))
		for i := range r.cShardSecs {
			r.cShardSecs[i] = reg.Counter(fmt.Sprintf("%s.shard.%d.sections", name, i))
		}
	}
	// Quorum-commit signals: how many caught-up backups are in the
	// output-commit set and how many receipts the rule currently
	// requires, so a dashboard shows quorum erosion before it becomes
	// quorum loss.
	reg.Gauge(name+".quorum.live", func() int64 { live, _ := r.backups(); return int64(live) })
	reg.Gauge(name+".quorum.need", func() int64 { return int64(r.quorumNeed()) })
	// Retained-log footprint: what epoch truncation keeps bounded (and
	// what grows without bound when epochs are off).
	reg.Gauge(name+".log.retained.tuples", func() int64 { return int64(r.hist.n) })
	reg.Gauge(name+".log.retained.bytes", func() int64 { return r.hist.bytes })
	// Fabric-side sending signals, sampled off the first log ring (the
	// links are symmetric): how many reservations are open but unpublished
	// and how often senders had to park for capacity.
	if len(r.replicas) > 0 {
		ring := r.replicas[0].Ring()
		reg.Gauge(name+".ring.spans", func() int64 { return int64(ring.OpenSpans()) })
		reg.Gauge(name+".ring.reserve.waits", func() int64 { return ring.Stats().ReserveWaits })
	}
}

// cShardSec returns the section counter for one det shard (nil when the
// recorder is uninstrumented).
func (r *Recorder) cShardSec(shard int) *obs.Counter {
	if shard >= len(r.cShardSecs) {
		return nil
	}
	return r.cShardSecs[shard]
}

// noteFlush records one vectored log flush of n tuples: the count, the
// batch-fill sample, the flush event, and the unacked backlog at this
// moment.
func (r *Recorder) noteFlush(n int) {
	r.stats.LogBatches++
	r.sc.Emit(obs.BatchFlush, 0, int64(r.sent), int64(n))
	r.hBatchFill.Observe(int64(n))
	r.hFlushLag.Observe(int64(r.sent - r.ackedAll()))
}

func (r *Replayer) instrument(name string, sc *obs.Scope, reg *obs.Registry) {
	r.sc = sc
	r.cAcks = reg.Counter(name + ".replay.acks")
	r.hRecvBatch = reg.Histogram(name+".replay.batch", "tuples")
	// Grant wait: how long a shadow thread sits parked in __det_start
	// before its turn arrives — the replay-side serialization signal the
	// per-object grant table exists to shrink.
	r.hGrantWait = reg.Histogram(name+".grant.wait", "ns")
	// Retained-log footprint, truncated at each digest-verified epoch
	// boundary when epoch checkpoints are on. Prefixed .replay so the
	// first backup (which shares the recorder's bare namespace name)
	// doesn't collide with the recorder's .log.retained gauges.
	reg.Gauge(name+".replay.retained.tuples", func() int64 { return int64(r.hist.n) })
	reg.Gauge(name+".replay.retained.bytes", func() int64 { return r.hist.bytes })
}
