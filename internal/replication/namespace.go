package replication

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// Namespace is one side's view of an FT-Namespace (§3): applications
// launched inside it are replicated with the record/replay protocol;
// everything outside runs natively. It implements pthread.Det, so a
// pthread.Lib bound to the namespace interposes every synchronization
// operation.
type Namespace struct {
	name string
	role Role
	kern *kernel.Kernel
	cfg  Config
	lib  *pthread.Lib

	rec *Recorder
	rep *Replayer

	env       map[string]string
	nextFTPid int
	threads   map[int]*Thread // by kernel TID

	// resume holds checkpoint thread cursors while a rejoined replica
	// restores its applications from an epoch checkpoint (ResumeFrom):
	// re-spawned threads pop their original ft_pid and Seq_thread here
	// instead of assigning fresh identity through a det section.
	resume *resumeState
}

// resumeState is the checkpoint identity table a restore drains: thread
// cursors in ascending ft_pid order (the original global assignment
// order, which restorable apps must re-spawn in), and the namespace's
// ft_pid high-water mark once every pin is consumed.
type resumeState struct {
	pins      []SeqCursor
	finalNext int
}

var _ pthread.Det = (*Namespace)(nil)

// Thread is one replicated thread: a kernel task plus its replication
// identity (ft_pid) and per-thread sequence number (Seq_thread).
type Thread struct {
	ns    *Namespace
	task  *kernel.Task
	ftpid int
	seq   uint64
	sec   section
	guard pthread.SectionError // the open section, as a park inside it panics (see opened)
}

// section is the state of a thread's deterministic section between enter
// and exit, and of its wait for a replay turn before that. A thread is in
// at most one section at a time, so the record lives in the thread.
type section struct {
	// Recording: the recorder the section records into (the primary's, or
	// a promoted replica's fork), the shard lock held, the tuple's identity.
	rec   *Recorder
	op    pthread.Op
	obj   uint64
	key   uint64
	shard int

	// Replaying: wait is the wait record the thread parks on until its
	// tuple is granted — or until promotion flushes it out of replay (no
	// tuple: the thread continues live or recording). paid is the replay
	// cost the grant's wake-up already ran. replay marks a granted section
	// open.
	wait     *kernel.Waiter
	parkedAt sim.Time // for grant-wait attribution
	paid     time.Duration
	flushed  bool
	replay   bool
	tuple    Tuple
}

// opened arms the runtime guard over the section the engine just opened:
// until exit starts, a park panics with th.guard. The window ends where
// exit begins because the recorder's emit inside exit may park on ring
// backpressure, after the thread has let go of the section.
func (th *Thread) opened(op pthread.Op, obj uint64) {
	th.guard = pthread.SectionError{Task: th.task.Name(), FTPid: th.ftpid, Op: op, Obj: obj, Call: "park"}
	th.task.Proc().GuardPark(&th.guard)
}

// mustBeClosed panics if th opens a section inside its open one.
func (th *Thread) mustBeClosed() {
	if th.sec.rec != nil || th.sec.replay {
		e := th.guard
		e.Call = "Enter"
		panic(&e)
	}
}

// Task returns the underlying kernel task.
func (th *Thread) Task() *kernel.Task { return th.task }

// FTPid returns the replicated-task unique identifier.
func (th *Thread) FTPid() int { return th.ftpid }

// NS returns the thread's namespace.
func (th *Thread) NS() *Namespace { return th.ns }

// Lib returns the namespace's interposed Pthreads library.
func (th *Thread) Lib() *pthread.Lib { return th.ns.lib }

// NewPrimary creates the primary side of an FT-Namespace, streaming its log
// to one backup replica per log+ack ring pair: one pair is the paper's
// two-replica prototype, more the §6 extension. Output commit follows
// Config.CommitQuorum.
func NewPrimary(name string, k *kernel.Kernel, cfg Config, logs, acks []*shm.Ring) *Namespace {
	if len(logs) == 0 {
		panic("replication: a primary needs at least one backup's log+ack ring pair")
	}
	ns := newNamespace(name, RolePrimary, k, cfg)
	ns.rec = newRecorder(k, ns.cfg, logs, acks, forkSeed{})
	return ns
}

// NewSecondary creates the secondary side of an FT-Namespace. At promotion
// the replica forks into a recording primary, continuing the recorded
// history so a later backup can rejoin.
func NewSecondary(name string, k *kernel.Kernel, cfg Config, log, acks *shm.Ring) *Namespace {
	ns := newNamespace(name, RoleSecondary, k, cfg)
	ns.rep = newReplayer(k, ns.cfg, log, acks)
	ns.rep.ns = ns
	return ns
}

// forkRecorder converts the promoted replica into a recording primary at
// the instant promotion finishes: the fork inherits the replayed history,
// global cursor and divergence count, and the replayer's event scope; its
// metrics stay unregistered (the dead primary's namespace has the names).
func (ns *Namespace) forkRecorder(seed forkSeed) {
	ns.rec = newRecorder(ns.kern, ns.cfg, nil, nil, seed)
	ns.rec.sc, ns.rec.stats.Divergences = ns.rep.sc, ns.rep.stats.Divergences
	ns.role = RolePrimary
}

// NewLive creates an unreplicated namespace — the stock-Ubuntu baseline, and
// the mode replicas run in after failover — under DefaultConfig's policy.
func NewLive(name string, k *kernel.Kernel) *Namespace {
	return newNamespace(name, RoleLive, k, DefaultConfig())
}

func newNamespace(name string, role Role, k *kernel.Kernel, cfg Config) *Namespace {
	ns := &Namespace{
		name:    name,
		role:    role,
		kern:    k,
		cfg:     cfg.WithBatchDefaults(),
		threads: make(map[int]*Thread),
	}
	ns.lib = pthread.NewLib(k, ns)
	return ns
}

// Name returns the namespace name.
func (ns *Namespace) Name() string { return ns.name }

// Kernel returns the kernel this side runs on.
func (ns *Namespace) Kernel() *kernel.Kernel { return ns.kern }

// Config returns the engine configuration, batching defaults resolved.
func (ns *Namespace) Config() Config { return ns.cfg }

// Lib returns the namespace's interposed Pthreads library.
func (ns *Namespace) Lib() *pthread.Lib { return ns.lib }

// Role returns the namespace's effective role. A primary that lost every
// backup — a promoted secondary's fork included — reports RoleLive: it
// records into retained history but runs unreplicated, and flips back to
// RolePrimary the moment a rejoined backup starts syncing.
func (ns *Namespace) Role() Role {
	if ns.role == RolePrimary && ns.rec.degraded {
		if live, syncing := ns.rec.backups(); live+syncing == 0 {
			return RoleLive
		}
	}
	return ns.role
}

// Recording reports whether this side records: a primary, or the fork a
// promoted secondary became.
func (ns *Namespace) Recording() bool { return ns.role == RolePrimary }

// Replayer returns the secondary engine (nil on other roles); the failover
// path uses it to promote.
func (ns *Namespace) Replayer() *Replayer { return ns.rep }

// SeqGlobal returns the number of deterministic sections recorded so far
// (the primary's Seq_global cursor); zero on non-recording roles.
func (ns *Namespace) SeqGlobal() uint64 {
	if ns.rec != nil {
		return ns.rec.seqGlobal
	}
	return 0
}

// ReplayHead returns the scalar replay watermark: the next global sequence
// number with one det shard, the Lamport frontier (every GlobalSeq below it
// replayed) with more; zero on non-replaying roles. The replay lag of a
// deployment is the primary's SeqGlobal minus the secondary's ReplayHead.
func (ns *Namespace) ReplayHead() uint64 {
	if ns.rep != nil {
		return ns.rep.head()
	}
	return 0
}

// Processed returns the number of log messages this side has ingested off
// its log ring (acknowledged at receipt, §3.5), zero on non-replaying
// roles: the watermark failover election ranks surviving backups by.
func (ns *Namespace) Processed() uint64 {
	if ns.rep != nil {
		return ns.rep.processed
	}
	return 0
}

// Watermarks returns the recording side's per-replica receipt watermark
// vector in link order (nil on non-recording roles). See
// Recorder.Watermarks.
func (ns *Namespace) Watermarks() []ReplicaWatermark {
	if ns.rec == nil {
		return nil
	}
	return ns.rec.Watermarks()
}

// SeqCursor is one thread's replication cursor: its ft_pid and the
// per-thread sequence number (Seq_thread) it has reached.
type SeqCursor struct {
	FTPid int
	Seq   uint64
}

// Cursors returns the checkpoint cursor state: the Seq_global watermark and
// every thread's Seq_thread by ft_pid, written over buf's array.
func (ns *Namespace) Cursors(buf []SeqCursor) (seqGlobal uint64, threads []SeqCursor) {
	threads = slices.Grow(buf[:0], len(ns.threads))
	for _, th := range ns.threads {
		threads = append(threads, SeqCursor{FTPid: th.ftpid, Seq: th.seq})
	}
	slices.SortFunc(threads, func(a, b SeqCursor) int { return cmp.Compare(a.FTPid, b.FTPid) })
	switch {
	case ns.rec != nil:
		seqGlobal = ns.rec.seqGlobal
	case ns.rep != nil:
		seqGlobal = ns.rep.head()
	}
	return seqGlobal, threads
}

// ObjCursors writes over buf's array each sequencing object's Seq_obj this
// side has passed, sorted by object key: with the Lamport watermark from
// Cursors, the sharded checkpoint cut (kept at one det shard too).
func (ns *Namespace) ObjCursors(buf []ObjCursor) []ObjCursor {
	var m map[uint64]uint64
	switch {
	case ns.rec != nil:
		m = ns.rec.objSeq
	case ns.rep != nil:
		m = ns.rep.objDone
	}
	out := slices.Grow(buf[:0], len(m))
	for k, v := range m { // ftvet:nondet collect-then-sort
		out = append(out, ObjCursor{Obj: k, Seq: v})
	}
	slices.SortFunc(out, func(a, b ObjCursor) int { return cmp.Compare(a.Obj, b.Obj) })
	return out
}

// NextFTPid returns the next ft_pid the namespace would assign — part of
// the rejoin checkpoint, so replica identity assignment agrees after a
// resync.
func (ns *Namespace) NextFTPid() int { return ns.nextFTPid }

// Env returns the replicated environment mirror.
func (ns *Namespace) Env() map[string]string { return ns.env }

// AddReplica adds a backup to a recording namespace (Recorder.AddReplica).
func (ns *Namespace) AddReplica(log, acks *shm.Ring, onCaughtUp func()) int {
	if ns.role != RolePrimary {
		panic("replication: AddReplica on a non-recording namespace")
	}
	return ns.rec.AddReplica(log, acks, onCaughtUp)
}

// HoldReplica keeps the i-th backup out of the output-commit and epoch
// quorums, or releases it (a rejoined backup, until its frontier check).
func (ns *Namespace) HoldReplica(i int, held bool) {
	ns.rec.replicas[i].held = held
	ns.rec.fireStable()
	ns.rec.maybeTruncateEpochs()
}

// OnReplayHead arms fn to run when the replayer's head reaches seq; the
// rejoin checkpoint verifier compares cursors exactly at the watermark.
func (ns *Namespace) OnReplayHead(seq uint64, fn func()) {
	if ns.rep == nil {
		panic("replication: OnReplayHead on a non-replaying namespace")
	}
	ns.rep.addHeadSub(headSub{seq: seq, fn: fn})
}

// ResumeFrom installs an epoch checkpoint's thread-identity table for the
// restore that follows: the next len(threads) thread creations (Start for
// ft_pid 1, then SpawnThread, in ascending ft_pid order — the original
// assignment order) adopt their checkpointed ft_pid and Seq_thread instead of
// an OpThreadCreate section; nextFTPid is restored once the pins drain. A
// checkpoint without threads (genesis) installs nothing.
func (ns *Namespace) ResumeFrom(threads []SeqCursor, nextFTPid int) {
	if len(threads) == 0 {
		return
	}
	pins := slices.SortedFunc(slices.Values(threads), func(a, b SeqCursor) int { return cmp.Compare(a.FTPid, b.FTPid) })
	ns.resume = &resumeState{pins: pins, finalNext: nextFTPid}
}

// popResume pops the next checkpoint thread pin during a restore.
func (ns *Namespace) popResume() (SeqCursor, bool) {
	if ns.resume == nil || len(ns.resume.pins) == 0 {
		return SeqCursor{}, false
	}
	c := ns.resume.pins[0]
	ns.resume.pins = ns.resume.pins[1:]
	ns.nextFTPid = c.FTPid
	if len(ns.resume.pins) == 0 {
		ns.nextFTPid = ns.resume.finalNext
		ns.resume = nil
	}
	return c, true
}

// LogWatermark returns the recording side's cut coordinates: the
// Seq_global Lamport watermark and the cumulative log-message count.
// Read under Quiesce they are the exact identity of an epoch boundary.
func (ns *Namespace) LogWatermark() (seqGlobal, sent uint64) {
	if ns.rec == nil {
		return 0, 0
	}
	return ns.rec.seqGlobal, ns.rec.sent
}

// Quiesce freezes the namespace at a section boundary (Recorder.quiesce).
func (ns *Namespace) Quiesce(t *kernel.Task) func() {
	if ns.rec == nil {
		return func() {}
	}
	return ns.rec.quiesce(t)
}

// EmitEpoch streams an epoch-checkpoint marker through the log (primary
// only; the caller holds Quiesce so the marker lands at exactly the cut
// watermark).
func (ns *Namespace) EmitEpoch(t *kernel.Task, mark EpochMark, size int) {
	if ns.rec == nil {
		panic("replication: EmitEpoch on a non-recording namespace")
	}
	ns.rec.EmitEpoch(t, mark, size)
}

// OnEpoch installs the replica-side epoch-boundary verifier: fn runs at
// each marker's exact replay frontier and reports whether the local
// replayed state reproduces the checkpoint digest. A true return
// truncates the retained log at the boundary and acks the epoch. Without
// a verifier, markers are retained for alignment but never verified.
func (ns *Namespace) OnEpoch(fn func(EpochMark) bool) {
	if ns.rep == nil {
		panic("replication: OnEpoch on a non-replaying namespace")
	}
	ns.rep.onEpoch = fn
}

// OnEpochQuorum installs the recording-side callback fired when an epoch
// reaches its ack quorum and the retained log has been truncated at it.
func (ns *Namespace) OnEpochQuorum(fn func(epoch uint64)) {
	if ns.rec == nil {
		panic("replication: OnEpochQuorum on a non-recording namespace")
	}
	ns.rec.onEpochQuorum = fn
}

// SeedEpochs seeds the epoch counters on a promoted primary's fork
// recorder, so its first cut continues the dead primary's sequence.
func (ns *Namespace) SeedEpochs(epoch uint64) {
	if ns.rec != nil {
		ns.rec.epochSeen, ns.rec.epochDone = epoch, epoch
	}
}

// SeedCheckpoint initializes a fresh secondary from an epoch checkpoint
// (see Replayer.SeedCheckpoint). Must run before any log message
// arrives.
func (ns *Namespace) SeedCheckpoint(epoch, seqGlobal, sent uint64, objs []ObjCursor, env map[string]string) {
	if ns.rep == nil {
		panic("replication: SeedCheckpoint on a non-replaying namespace")
	}
	ns.rep.SeedCheckpoint(epoch, seqGlobal, sent, objs, env)
}

// RetainedTuples and RetainedBytes report this side's retained log
// footprint (the ftns.log.retained.* gauges).
func (ns *Namespace) RetainedTuples() int { return ns.retained().n }

func (ns *Namespace) RetainedBytes() int64 { return ns.retained().bytes }

func (ns *Namespace) retained() *logWindow {
	switch {
	case ns.rec != nil:
		return &ns.rec.hist
	case ns.rep != nil:
		return &ns.rep.hist
	}
	return &noHistory
}

var noHistory logWindow // a live side retains nothing

// Degrade drops every backup link on the primary side: it keeps recording
// into its retained history, unreplicated, until a rejoined backup catches
// up. On other roles it is a no-op.
func (ns *Namespace) Degrade() {
	if ns.rec != nil {
		ns.rec.degrade()
	}
}

// DropReplica stops streaming to the i-th backup (it died); when no live
// backup remains the primary degrades. Only meaningful on the primary.
func (ns *Namespace) DropReplica(i int) {
	if ns.rec != nil {
		ns.rec.dropReplica(i)
	}
}

// Stats returns this side's replication statistics.
func (ns *Namespace) Stats() (s Stats) {
	switch {
	case ns.rec != nil:
		s = ns.rec.stats
	case ns.rep != nil:
		s = ns.rep.stats
	}
	s.LockCycles = uint64(len(ns.lib.LockCycles()))
	return s
}

// ThreadOf returns the Thread owning a kernel task. It panics for tasks
// outside the namespace — they have no replication identity.
func (ns *Namespace) ThreadOf(t *kernel.Task) *Thread {
	th, ok := ns.threads[t.TID()]
	if !ok {
		panic(fmt.Sprintf("replication: task %q is not in FT-Namespace %q", t.Name(), ns.name))
	}
	return th
}

// enter opens a deterministic section for th on whichever engine this side
// runs: the recorder on the primary, the replayer on the secondary — and,
// when the replica is (or, while th was parked for its turn, became) a
// promoted one recording into a fork, that fork. A live side opens nothing.
func (ns *Namespace) enter(th *Thread, op pthread.Op, obj uint64) {
	if ns.role == RoleSecondary && ns.rep.enter(th, op, obj) {
		return
	}
	if ns.role == RolePrimary {
		ns.rec.enter(th, op, obj)
	}
}

// exit closes th's section where enter opened it. out is the outcome the
// section settled; the result is what the caller acts on — the recorded
// one when the section replayed.
func (ns *Namespace) exit(th *Thread, out uint64) uint64 {
	th.task.Proc().GuardPark(nil)
	switch {
	case th.sec.replay:
		return ns.rep.exit(th)
	case th.sec.rec != nil:
		th.sec.rec.exit(th, out)
	}
	return out
}

// Enter implements pthread.Det.
func (ns *Namespace) Enter(t *kernel.Task, op pthread.Op, obj uint64) {
	if ns.role != RoleLive {
		ns.enter(ns.ThreadOf(t), op, obj)
	}
}

// Exit implements pthread.Det.
func (ns *Namespace) Exit(t *kernel.Task, outcome uint64) uint64 {
	if ns.role == RoleLive {
		return outcome
	}
	return ns.exit(ns.ThreadOf(t), outcome)
}

// Wakes implements pthread.Det: every side but a replaying one applies its
// own wake-ups and timeouts; there the replayer applies the recorded ones
// (applyWake).
func (ns *Namespace) Wakes() bool { return ns.role != RoleSecondary }

// Replayed implements pthread.Det.
func (ns *Namespace) Replayed(t *kernel.Task) (uint64, bool) {
	if th := ns.threads[t.TID()]; th != nil && th.sec.replay {
		return th.sec.tuple.Outcome, true
	}
	return 0, false
}

// isWake reports whether op is a wake-up — a signal, a broadcast or a timed
// waiter's timeout: no shadow thread replays it.
func isWake(op pthread.Op) bool { return op >= pthread.OpCondTimeout && op <= pthread.OpCondBroadcast }

// wakeOutcome is what a wake-up records: the ft_pid of the waiter a signal
// or timeout dequeued (pthread's TID differs across replicas), a
// broadcast's count.
func (ns *Namespace) wakeOutcome(op pthread.Op, out uint64) uint64 {
	if (op == pthread.OpCondSignal || op == pthread.OpCondTimeout) && out != 0 {
		return uint64(ns.threads[int(out)].ftpid)
	}
	return out
}

// SyscallU64 replicates a syscall returning a scalar (§3.4): executed on
// the primary (outside the det-section lock — it may block, like accept or
// read) and recorded; replayed from the log on the secondary, where run
// executes only after failover promotion (live mode).
func (ns *Namespace) SyscallU64(th *Thread, op pthread.Op, obj uint64, run func() uint64) uint64 {
	var v uint64
	if ns.role != RoleSecondary || !ns.rep.enter(th, op, obj) {
		v = run()
		ns.enter(th, op, obj)
	}
	return ns.exit(th, v)
}

// OnStable invokes fn once all log messages sent so far are acknowledged
// by the secondary (output commit). On non-recording roles fn runs
// immediately.
func (ns *Namespace) OnStable(fn func()) {
	if ns.Recording() {
		ns.rec.onStable(fn)
		return
	}
	fn()
}

// Start launches the replicated process's root thread (ft_pid 1). On the
// primary, env is replicated to the secondary before the application runs
// (§3: the FT-Namespace launching procedure); on the secondary the passed
// env is ignored in favour of the replicated one.
func (ns *Namespace) Start(name string, env map[string]string, fn func(*Thread)) *Thread {
	ns.nextFTPid = 1
	th := &Thread{ns: ns, ftpid: 1}
	if c, ok := ns.popResume(); ok {
		if c.FTPid != 1 {
			panic(fmt.Sprintf("replication: resume pins must start at ft_pid 1, got %d", c.FTPid))
		}
		th.seq = c.Seq
	}
	th.task = ns.kern.Spawn(name, func(t *kernel.Task) {
		switch ns.role {
		case RolePrimary:
			ns.env = env
			ns.rec.emit(t, envMessage(env))
		case RoleSecondary:
			ns.env = ns.rep.waitEnv(t)
		default:
			ns.env = env
		}
		fn(th)
	})
	ns.threads[th.task.TID()] = th
	return th
}

// Getenv returns a replicated environment variable.
func (ns *Namespace) Getenv(key string) string { return ns.env[key] }

// SpawnThread creates a replicated thread. The ft_pid is assigned inside a
// deterministic section, so thread identity agrees across replicas even
// when multiple threads spawn concurrently. During a checkpoint restore
// (ResumeFrom) the det section is bypassed: the thread adopts its
// checkpointed identity — those OpThreadCreate sections happened before
// the epoch boundary and are part of the state the checkpoint subsumes.
func (ns *Namespace) SpawnThread(parent *Thread, name string, fn func(*Thread)) *Thread {
	var ftpid int
	var seq uint64
	if c, ok := ns.popResume(); ok {
		ftpid, seq = c.FTPid, c.Seq
	} else {
		ns.enter(parent, OpThreadCreate, 0)
		ns.nextFTPid++
		ftpid = ns.nextFTPid
		ns.exit(parent, 0)
	}
	th := &Thread{ns: ns, ftpid: ftpid, seq: seq}
	th.task = ns.kern.Spawn(name, func(t *kernel.Task) { fn(th) })
	ns.threads[th.task.TID()] = th
	return th
}

// Now is the replicated gettimeofday (§3.3): both replicas observe the
// primary's clock values, so timeout decisions agree.
func (th *Thread) Now() sim.Time {
	v := th.ns.SyscallU64(th, OpGetTimeOfDay, 0, func() uint64 { return uint64(th.task.Now()) })
	return sim.Time(v)
}

// Join blocks until another replicated thread finishes locally.
func (th *Thread) Join(other *Thread) { other.task.Join(th.task) }
