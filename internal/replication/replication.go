// Package replication implements FT-Linux's core contribution: transparent
// Primary-Backup replication of race-free multithreaded applications via
// record/replay of deterministic sections (§3.2, §3.3).
//
// Every interposed operation (Pthreads primitives, selected syscalls) runs
// inside a deterministic section serialized by a namespace-wide global
// mutex; leaving it, the primary streams a tuple
//
//	<Seq_thread, Seq_global, ft_pid> (+ op, object, outcome)
//
// over the shared-memory messaging layer — the __det_start/__det_end
// protocol of Figure 3. The secondary's shadow threads each block until the
// tuple matching their thread and sequence number heads the log, yielding
// the primary's total order while unordered code runs in parallel.
//
// With Config.DetShards > 1 the global mutex is sharded into per-object
// sequencing: every replicated object owns a Seq_obj counter, sections on
// different objects record concurrently, and the secondary grants turns
// from a per-object table. Seq_global stays a Lamport clock, the scalar
// watermark output commit, checkpoints and rejoin verification need. One
// shard is exactly the paper's global total order.
//
// A syscall result the secondary must not recompute, and whom a
// condition-variable wake-up woke, travel as the tuple's outcome.
//
// Output stability (§3.5): the primary's network output is released only
// once the backups have acknowledged every log message it depends on; the
// relaxed mode releases at once, counting on cache coherency to deliver
// in-flight messages even across a primary failure.
package replication

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/pthread"
	"repro/internal/shm"
)

// Role is a replica's role in the namespace.
type Role int

const (
	// RolePrimary records and streams deterministic sections.
	RolePrimary Role = iota + 1
	// RoleSecondary replays the primary's log.
	RoleSecondary
	// RoleLive runs unreplicated: the baseline, and a recording side with
	// no backup — after a failure, until a repaired partition rejoins.
	RoleLive
)

var roleNames = map[Role]string{
	RolePrimary:   "primary",
	RoleSecondary: "secondary",
	RoleLive:      "live",
}

func (r Role) String() string { return cmp.Or(roleNames[r], fmt.Sprintf("Role(%d)", int(r))) }

// Extended deterministic-section ops beyond the Pthreads set.
const (
	// OpThreadCreate assigns an ft_pid to a newly spawned replicated
	// thread, so thread identity matches across replicas.
	OpThreadCreate pthread.Op = 100 + iota
	// OpGetTimeOfDay replicates clock reads (§3.3).
	OpGetTimeOfDay
	// OpSockData replicates the result of a socket call that moves data
	// (recv, send); the bytes travel on tcprep's sync stream.
	OpSockData
	// OpSockResult replicates a scalar socket syscall result.
	OpSockResult
)

// Message kinds on the replication log ring.
const (
	msgTuple = iota + 1
	msgEnv
	// msgEpoch carries an EpochMark through the ordinary log stream: an
	// epoch checkpoint cut on the primary, delivered in order so every
	// backup sees the marker at exactly the log position it describes.
	msgEpoch
	// msgEpochAck travels the ack ring from backup to primary once the
	// backup has verified an epoch boundary against its replay watermark
	// and truncated its retained log there (payload = epoch number).
	msgEpochAck
)

// EpochMark is the epoch-checkpoint marker the primary emits through the
// log stream (msgEpoch): cut at sent-watermark S it occupies log position
// S, so truncating before it drops exactly the S messages the checkpoint
// replaces, on every side.
type EpochMark struct {
	// Epoch is the monotone epoch number (1-based; survives failover).
	Epoch uint64
	// SeqGlobal is the namespace Lamport watermark at the cut.
	SeqGlobal uint64
	// Sent is the primary's cumulative log-message count at the cut: the
	// log position of this marker and the truncation base of the epoch.
	Sent uint64
	// Digest is the checkpoint digest a backup must reproduce from its
	// own replayed state at SeqGlobal before it may truncate.
	Digest uint64
	// Payload carries the full checkpoint (a *rejoin.EpochCheckpoint,
	// opaque here to keep the package dependency one-way). Backups store
	// the latest verified payload so a post-failover rejoin can start
	// from it instead of replaying full history.
	Payload any
}

// tupleBytes is the accounted shared-memory footprint of one log tuple:
// one cache line of sequence numbers and op metadata (the 64-byte slot
// header is added by the messaging layer).
const tupleBytes = 64

// Tuple is one deterministic-section record: <Seq_thread, Seq_obj, obj_id,
// ft_pid> plus the Lamport Seq_global watermark, the op metadata, the
// sequencing key and the outcome, in one accounted cache line (tupleBytes).
type Tuple struct {
	ThreadSeq uint64
	// GlobalSeq is the namespace Lamport clock at emission. With one det
	// shard it is the paper's dense global sequence; with more it remains
	// unique and consistent with every per-thread and per-object order,
	// giving the scalar watermark output commit and checkpoints need.
	GlobalSeq uint64
	// ObjSeq is the section's rank in the order of its sequencing object,
	// Key: the cursor the sharded replayer grants against.
	ObjSeq uint64
	FTPid  int
	Op     pthread.Op
	Obj    uint64
	Key    uint64 // Namespace.seqKey(Op, Obj)
	// Outcome is the recorded result of a syscall, or whom a wake-up woke
	// (wakeOutcome); zero otherwise.
	Outcome uint64
}

// message lays the tuple out in a ring message's seven words, ft_pid packed
// above the op's opBits. tupleOf is its inverse.
func (tu Tuple) message() shm.Message {
	if tu.Op < 0 || tu.Op >= 1<<opBits || tu.FTPid < 0 || tu.FTPid >= 1<<(64-opBits) {
		panic(fmt.Sprintf("replication: tuple %v does not fit a message", tu))
	}
	return shm.Message{Kind: msgTuple, Size: tupleBytes, W: [7]uint64{tu.ThreadSeq, tu.GlobalSeq, tu.ObjSeq,
		uint64(tu.FTPid)<<opBits | uint64(tu.Op), tu.Obj, tu.Key, tu.Outcome}}
}

func tupleOf(m shm.Message) Tuple {
	return Tuple{ThreadSeq: m.W[0], GlobalSeq: m.W[1], ObjSeq: m.W[2], FTPid: int(m.W[3] >> opBits),
		Op: pthread.Op(m.W[3] & (1<<opBits - 1)), Obj: m.W[4], Key: m.W[5], Outcome: m.W[6]}
}

// A tuple message holds Seq_global in word wGlobalSeq, and its op in the
// low opBits of the ft_pid word.
const wGlobalSeq, opBits = 1, 16

// ackMessage is a cumulative acknowledgement on the ack ring: the receipt
// watermark (msgTuple) or a verified epoch number (msgEpochAck) in word 0;
// a receipt watermark carries the replayer's backlog in word 1, uncounted.
func ackMessage(kind int, v, backlog uint64) shm.Message {
	return shm.Message{Kind: kind, Size: 16, W: [7]uint64{v, backlog}}
}

// envMessage carries the replicated environment (once per launch) and
// epochMessage an epoch marker (once per epoch, size being the checkpoint's
// accounted ring footprint): both ride the reference slot, read back with
// m.Ref.(map[string]string) and m.Ref.(*EpochMark).
func envMessage(env map[string]string) shm.Message {
	size := 0
	for k, v := range env {
		size += len(k) + len(v) + 2
	}
	return shm.Message{Kind: msgEnv, Size: size, Ref: env}
}

func epochMessage(mark *EpochMark, size int) shm.Message {
	return shm.Message{Kind: msgEpoch, Size: size, Ref: mark}
}

func (tu Tuple) String() string {
	return fmt.Sprintf("<%d,%d,%d,%d> %v obj=%d key=%d out=%d",
		tu.ThreadSeq, tu.GlobalSeq, tu.ObjSeq, tu.FTPid, tu.Op, tu.Obj, tu.Key, tu.Outcome)
}

// seqKey derives a section's sequencing object: a pthread primitive's from
// its library (pthread.Lib.SeqKey); an extended op folds the op into the
// key — a sequencer per syscall class and socket fd, one for
// OpThreadCreate. A colliding key only over-orders, never under-orders.
func (ns *Namespace) seqKey(op pthread.Op, obj uint64) uint64 {
	if op < OpThreadCreate {
		return ns.lib.SeqKey(op, obj)
	}
	return uint64(op)<<48 | obj
}

// ObjCursor is the Seq_obj one sequencing object's side has reached: with
// the Lamport watermark, what a sharded checkpoint holds.
type ObjCursor struct {
	Obj uint64
	Seq uint64
}

// Config tunes the replication engine.
type Config struct {
	// SectionCost is the CPU cost of one deterministic section on the
	// primary (global-mutex critical section plus tuple write).
	SectionCost time.Duration
	// ReplayDispatchCost is the secondary's serial CPU cost to pull one
	// tuple off the ring and hand it to the waiting shadow thread; this
	// path (which rides wake_up_process) is the bottleneck of §4.1.
	ReplayDispatchCost time.Duration
	// ReplaySectionCost is the CPU cost of running one replayed section on
	// the shadow thread.
	ReplaySectionCost time.Duration
	// LogRingBytes is the in-flight log buffer: its exhaustion drops
	// sustained throughput to the secondary's replay rate (§4.1).
	LogRingBytes int64
	// StrictOutputCommit selects waiting for secondary acknowledgements
	// before releasing network output; false is the §3.5 relaxed mode.
	StrictOutputCommit bool
	// PanicOnDivergence makes the secondary kernel panic when replay
	// diverges (default counts divergences, for the FIFO-futex ablation).
	PanicOnDivergence bool
	// BatchTuples is how many log tuples the recorder coalesces per backup
	// into one vectored ring transfer; 1 is the paper's prototype. An
	// output-commit waiter always forces a flush, so commit latency never
	// waits on a partial batch.
	BatchTuples int
	// FlushInterval bounds how long a partially filled batch may sit
	// buffered on the primary before its deadline publishes it (0 selects
	// defaultFlushInterval).
	FlushInterval time.Duration
	// CommitQuorum is the number of backup receipts an output needs: zero
	// is the paper's all-backups rule (§3.5); with k > 0 the k-th-highest
	// receipt watermark among the live caught-up backups releases it, so
	// one lagging replica is off the commit path. With fewer than k alive
	// the rule degrades to all of the living.
	CommitQuorum int
	// DetShards is the number of det-section locks the global mutex is
	// sharded across (<= 1: the paper's one mutex, one sequencing domain,
	// one dispatch lane). With more, sections on different objects record
	// and replay concurrently, per-object and per-thread order kept.
	DetShards int
}

// defaultFlushInterval bounds buffered-tuple latency when no interval was
// configured.
const defaultFlushInterval = 50 * time.Microsecond

// WithBatchDefaults resolves the batching and sharding knobs' zero values,
// for core's validate and every namespace alike: at least one tuple per
// batch and one det shard, a flush interval so no tuple sits forever.
func (c Config) WithBatchDefaults() Config {
	c.BatchTuples, c.DetShards = max(c.BatchTuples, 1), max(c.DetShards, 1)
	if c.FlushInterval <= 0 {
		c.FlushInterval = defaultFlushInterval
	}
	return c
}

// DefaultConfig returns the calibrated engine configuration.
func DefaultConfig() Config {
	return Config{
		SectionCost:        8 * time.Microsecond,  // §3.3: global-mutex section plus tuple write
		ReplayDispatchCost: 58 * time.Microsecond, // §4.1: the backup's serial dispatch bounds Fig. 4
		ReplaySectionCost:  3 * time.Microsecond,  // §3.3: a replayed section on its shadow thread
		LogRingBytes:       2 << 20,               // §4.1: the burst the log buffer absorbs (Fig. 4)
		StrictOutputCommit: true,                  // §3.5: output waits for the backups' receipt
		BatchTuples:        8,                     // model choice: the paper streams every tuple (Fig. 5)
		FlushInterval:      defaultFlushInterval,  // model choice: bounds a partial batch's wait
	}
}

// Stats summarizes one side's replication activity.
type Stats struct {
	Sections     uint64 // deterministic sections recorded or replayed
	LogMessages  uint64 // log entries emitted (primary) or processed (secondary)
	LogBatches   uint64 // vectored ring transfers: flushes (primary) or multi-tuple deliveries drained (secondary)
	AckMessages  uint64 // cumulative acknowledgements sent (secondary)
	Divergences  uint64 // replay mismatches detected (secondary)
	Duplicates   uint64 // stale log messages discarded by the replayer (injected duplicates)
	EpochCuts    uint64 // epoch checkpoint markers emitted (primary)
	LogTruncated uint64 // retained log messages dropped at verified epoch boundaries
	LockCycles   uint64 // lock-order cycles the apps' locks closed (pthread.Lib.LockCycles)
}
