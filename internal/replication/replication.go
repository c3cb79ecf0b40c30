// Package replication implements FT-Linux's core contribution: transparent
// Primary-Backup replication of race-free multithreaded applications via
// record/replay of deterministic sections (§3.2, §3.3).
//
// The primary executes the application normally, except that every
// interposed operation (Pthreads primitives, selected syscalls) runs inside
// a deterministic section serialized by a namespace-wide global mutex; on
// leaving the section the primary streams a tuple
//
//	<Seq_thread, Seq_global, ft_pid> (+ op, object, outcome)
//
// to the secondary over the shared-memory messaging layer and increments
// both sequence numbers — the __det_start/__det_end protocol of Figure 3.
// The secondary replays: each shadow thread's deterministic section blocks
// until the tuple matching its thread and sequence number is at the head of
// the log, yielding the primary's total order while unordered code runs in
// parallel.
//
// With Config.DetShards > 1 the namespace-wide mutex is sharded into
// per-object sequencing: every replicated object (mutex, rwlock,
// condvar+internal-lock pair, replicated syscall class) owns a Seq_obj
// counter, sections on different objects record concurrently under
// different shard locks, and the secondary grants turns from a per-object
// table — independent objects replay in parallel. Seq_global is retained
// as a Lamport clock so output commit, checkpoint cuts and rejoin
// verification keep a scalar watermark; Seq_thread preserves each thread's
// program order. Shard count 1 is exactly the paper's global total order.
//
// Syscall results the secondary must not recompute (gettimeofday, bytes
// returned by reads, poll results) are recorded as resolve sections whose
// outcome (and payload bytes) travel with the tuple; the secondary returns
// the recorded result instead of executing the call.
//
// The package also implements output stability (§3.5): the primary's
// network output is released only once the secondary has acknowledged every
// log message the output depends on; the relaxed single-machine mode
// releases immediately, counting on cache coherency to deliver in-flight
// messages even across a primary failure.
package replication

import (
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
	// RoleLive runs unreplicated — the state after failover (either side).
	RoleLive
)

var roleNames = map[Role]string{
	RolePrimary:   "primary",
	RoleSecondary: "secondary",
	RoleLive:      "live",
}

func (r Role) String() string {
	if s, ok := roleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Extended deterministic-section ops beyond the Pthreads set.
const (
	// OpThreadCreate assigns an ft_pid to a newly spawned replicated
	// thread, so thread identity matches across replicas.
	OpThreadCreate pthread.Op = 100 + iota
	// OpGetTimeOfDay replicates clock reads (§3.3).
	OpGetTimeOfDay
	// OpSockData replicates a socket syscall result carrying data bytes.
	OpSockData
	// OpSockResult replicates a scalar socket syscall result.
	OpSockResult
	// OpPoll replicates poll/epoll readiness results (§3.2).
	OpPoll
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
// log stream (msgEpoch). It rides the same ordered ring as the tuples it
// fences: a marker emitted right after a cut at sent-watermark S occupies
// log position S itself, so "truncate everything before the marker" on a
// backup drops exactly the S messages the checkpoint replaces — the same
// count the primary drops from its own history after the epoch-ack
// quorum.
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
// ft_pid> plus the Lamport Seq_global watermark and the op metadata. The
// sequence numbers fit the same accounted cache line as before sharding
// (tupleBytes), so the wire footprint is unchanged.
type Tuple struct {
	ThreadSeq uint64
	// GlobalSeq is the namespace Lamport clock at emission. With one det
	// shard it is the paper's dense global sequence; with more it remains
	// unique and consistent with every per-thread and per-object order,
	// giving the scalar watermark output commit and checkpoints need.
	GlobalSeq uint64
	// ObjSeq is the section's rank in its sequencing object's own order —
	// the cursor the sharded replayer grants against.
	ObjSeq uint64
	FTPid  int
	Op     pthread.Op
	Obj    uint64
	// Outcome is the recorded result for resolve sections.
	Outcome uint64
	// Data carries payload bytes for data-bearing syscalls (reads).
	Data []byte
}

func (tu Tuple) size() int { return tupleBytes + len(tu.Data) }

// message lays the tuple out in a ring message — the seven scalars in the
// words, the payload bytes as the byte view — tagged with its det shard's
// stream. tupleOf is its inverse.
func (tu Tuple) message(stream int) shm.Message {
	return shm.Message{Kind: msgTuple, Stream: stream, Size: tu.size(), Data: tu.Data,
		W: [7]uint64{tu.ThreadSeq, tu.GlobalSeq, tu.ObjSeq, uint64(tu.FTPid), uint64(tu.Op), tu.Obj, tu.Outcome}}
}

func tupleOf(m shm.Message) Tuple {
	return Tuple{ThreadSeq: m.W[0], GlobalSeq: m.W[1], ObjSeq: m.W[2], FTPid: int(m.W[3]),
		Op: pthread.Op(m.W[4]), Obj: m.W[5], Outcome: m.W[6], Data: m.Data}
}

// wGlobalSeq is the word of a tuple message that holds Seq_global.
const wGlobalSeq = 1

// ackMessage is a cumulative acknowledgement on the ack ring: the receipt
// watermark (msgTuple) or a verified epoch number (msgEpochAck) in word 0.
func ackMessage(kind int, v uint64) shm.Message {
	return shm.Message{Kind: kind, Size: 16, W: [7]uint64{v}}
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
	return fmt.Sprintf("<%d,%d,%d,%d> %v obj=%d out=%d len=%d",
		tu.ThreadSeq, tu.GlobalSeq, tu.ObjSeq, tu.FTPid, tu.Op, tu.Obj, tu.Outcome, len(tu.Data))
}

// objKey derives a tuple's sequencing object. Pthread primitives carry
// library-unique object ids already; the extended ops fold the op into the
// key so each replicated syscall class (and each socket fd within a class)
// gets its own sequencer. OpThreadCreate stays totally ordered among itself
// because ft_pid assignment mutates shared namespace state. A colliding key
// only over-orders — it can never under-order — so the packing is safe.
func objKey(op pthread.Op, obj uint64) uint64 {
	if op < OpThreadCreate {
		return obj
	}
	return uint64(op)<<48 | obj
}

// ObjCursor is one sequencing object's replication cursor: the Seq_obj its
// side has reached. The per-object cursor vector plus the Lamport watermark
// replaces the single global cursor in sharded checkpoints.
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
	// LogRingBytes is the in-flight log buffer; it absorbs bursts, and its
	// exhaustion is what drops sustained throughput to the secondary's
	// replay rate (§4.1).
	LogRingBytes int64
	// StrictOutputCommit selects waiting for secondary acknowledgements
	// before releasing network output; false is the §3.5 relaxed mode.
	StrictOutputCommit bool
	// PanicOnDivergence makes the secondary kernel panic when replay
	// diverges (default counts divergences, for the FIFO-futex ablation).
	PanicOnDivergence bool
	// BatchTuples is how many log tuples the recorder coalesces per backup
	// into one vectored ring transfer sharing a single slot header and
	// delivery event. 1 (and anything below) is the paper's prototype: a
	// batch of one, every tuple its own transfer. An output-commit waiter
	// always forces an immediate flush, so strict output-commit latency
	// never waits on a partially filled batch.
	BatchTuples int
	// FlushInterval bounds how long a partially filled batch may sit
	// buffered on the primary before its deadline publishes it (0 selects
	// defaultFlushInterval).
	FlushInterval time.Duration
	// MaxBatchTuples is the ceiling of the recorder's batch controller
	// (see batchController). At or below BatchTuples — the zero value
	// included — the controller is pinned: the batch size is BatchTuples,
	// the static policy. Above it the effective batch size starts at
	// BatchTuples and is steered by AIMD between 1 and the ceiling: it
	// grows while output commits find their watermark already
	// acknowledged and halves the moment a commit stalls or the
	// unacked-log lag climbs. Negative selects the default ceiling,
	// max(4*BatchTuples, 32). The output-commit force-flush is the same at
	// every setting, so the controller trades only buffering latency,
	// never commit safety.
	MaxBatchTuples int
	// CommitQuorum is the number of backup receipt acknowledgements an
	// output-commit watermark needs before the output is released. Zero
	// keeps the conservative all-backups rule (every live, caught-up
	// backup must have received the log — the paper's §3.5 behavior and
	// byte-identical to the pre-quorum engine). With k > 0 the recorder
	// releases output once the k-th-highest receipt watermark among the
	// live caught-up backups covers the tuple: any k backups suffice, so
	// one lagging replica no longer sits on the commit path. When fewer
	// than k backups remain alive the rule degrades to all-of-the-living
	// — never weaker than what the survivors can actually promise.
	CommitQuorum int
	// DetShards is the number of det-section locks the namespace global
	// mutex is sharded across (<= 1 selects the paper's single global
	// mutex: one lock on the recorder, one sequencing domain and one
	// inline dispatch lane on the replayer). With more shards, sections
	// on different sequencing objects record and replay concurrently;
	// per-object FIFO hand-off and per-thread program order are
	// preserved, so race-free applications replay deterministically.
	DetShards int
	// Rejoinable retains the full log history on both sides so a fresh
	// backup can be re-integrated after a failure: the recorder keeps
	// every emitted message for catch-up streaming (AddReplica) and,
	// instead of going fully live when its last backup dies, degrades to
	// recording with vacuous output stability; the replayer keeps every
	// ingested message and, at promotion, forks the namespace into a
	// recording primary that continues the history seamlessly. It must be
	// set from construction: history cannot be recovered retroactively.
	Rejoinable bool
}

// defaultFlushInterval bounds buffered-tuple latency when no interval was
// configured.
const defaultFlushInterval = 50 * time.Microsecond

// WithBatchDefaults normalizes the batching and sharding knobs — the one
// place their zero values and the controller's ceiling are resolved, for
// a deployment (core's validate calls it) and for an engine built directly
// alike: at least one tuple per batch, a flush interval so a buffered
// tuple can never sit forever, a ceiling no lower than the batch it
// starts from, at least one det shard.
func (c Config) WithBatchDefaults() Config {
	if c.BatchTuples < 1 {
		c.BatchTuples = 1
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = defaultFlushInterval
	}
	if c.MaxBatchTuples < 0 {
		c.MaxBatchTuples = max(4*c.BatchTuples, 32)
	}
	if c.MaxBatchTuples < c.BatchTuples {
		c.MaxBatchTuples = c.BatchTuples
	}
	if c.DetShards < 1 {
		c.DetShards = 1
	}
	return c
}

// DefaultConfig returns the calibrated engine configuration.
func DefaultConfig() Config {
	return Config{
		SectionCost:        8 * time.Microsecond,
		ReplayDispatchCost: 58 * time.Microsecond,
		ReplaySectionCost:  3 * time.Microsecond,
		LogRingBytes:       2 << 20,
		StrictOutputCommit: true,
		BatchTuples:        8,
		FlushInterval:      defaultFlushInterval,
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
}
