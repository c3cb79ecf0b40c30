package replication

import (
	"fmt"
	"sort"

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
	threads   map[*kernel.Task]*Thread

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
	// tuple: the thread continues live or recording). replay marks a
	// granted section open, checked one whose settled outcome exit compares
	// with the recorded one.
	wait     *kernel.Waiter
	parkedAt sim.Time // for grant-wait attribution
	flushed  bool
	replay   bool
	checked  bool
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

// Seq returns the thread's deterministic-section sequence number.
func (th *Thread) Seq() uint64 { return th.seq }

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
	ns.rec = newRecorder(k, cfg, logs, acks, forkSeed{})
	return ns
}

// NewSecondary creates the secondary side of an FT-Namespace. With
// Config.Rejoinable the replica forks into a recording primary at
// promotion, continuing the recorded history so a later backup can rejoin.
func NewSecondary(name string, k *kernel.Kernel, cfg Config, log, acks *shm.Ring) *Namespace {
	ns := newNamespace(name, RoleSecondary, k, cfg)
	ns.rep = newReplayer(k, cfg, log, acks)
	if cfg.Rejoinable {
		ns.rep.onFork = ns.forkRecorder
	}
	return ns
}

// forkRecorder converts the promoted replica into a recording primary at
// the instant promotion finishes: the namespace role flips so every
// subsequent deterministic section dispatches to the fork, which inherits
// the replayed history, global cursor and divergence count (replay is over:
// nothing counts one after this). The fork's hot-path metrics are left
// unregistered — the dead primary's namespace claimed the names — but it
// shares the replayer's event scope so the flight timeline stays contiguous.
func (ns *Namespace) forkRecorder(seed forkSeed) {
	ns.rec = newRecorder(ns.kern, ns.cfg, nil, nil, seed)
	ns.rec.sc, ns.rec.stats.Divergences = ns.rep.sc, ns.rep.stats.Divergences
	ns.role = RolePrimary
}

// NewLive creates an unreplicated namespace — the stock-Ubuntu baseline
// configuration, and the mode replicas run in after failover.
func NewLive(name string, k *kernel.Kernel) *Namespace {
	return newNamespace(name, RoleLive, k, Config{})
}

func newNamespace(name string, role Role, k *kernel.Kernel, cfg Config) *Namespace {
	ns := &Namespace{
		name:    name,
		role:    role,
		kern:    k,
		cfg:     cfg,
		threads: make(map[*kernel.Task]*Thread),
	}
	ns.lib = pthread.NewLib(k, ns)
	return ns
}

// Name returns the namespace name.
func (ns *Namespace) Name() string { return ns.name }

// Kernel returns the kernel this side runs on.
func (ns *Namespace) Kernel() *kernel.Kernel { return ns.kern }

// Lib returns the namespace's interposed Pthreads library.
func (ns *Namespace) Lib() *pthread.Lib { return ns.lib }

// Role returns the namespace's effective role: a promoted secondary (or a
// primary whose backup died) reports RoleLive. A rejoinable primary that
// lost every backup also reports RoleLive — it records into retained
// history but runs unreplicated — and flips back to RolePrimary the
// moment a rejoined backup starts syncing.
func (ns *Namespace) Role() Role {
	switch {
	case ns.role == RolePrimary && ns.rec.live:
		return RoleLive
	case ns.role == RolePrimary && ns.rec.degraded:
		if live, syncing := ns.rec.backups(); live+syncing == 0 {
			return RoleLive
		}
	case ns.role == RoleSecondary && ns.rep.live:
		return RoleLive
	}
	return ns.role
}

// Recording reports whether this side records (primary, not yet live).
func (ns *Namespace) Recording() bool { return ns.role == RolePrimary && !ns.rec.live }

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
// its log ring (acknowledged at receipt, §3.5); zero on non-replaying
// roles. It is the receipt watermark failover election ranks surviving
// backups by: everything processed is in this replica's memory and will
// survive promotion, even if its replay head still lags.
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

// LiveBackups returns the number of live, caught-up backup links on a
// recording namespace (zero otherwise).
func (ns *Namespace) LiveBackups() int {
	if ns.rec == nil {
		return 0
	}
	live, _ := ns.rec.backups()
	return live
}

// QuorumNeed returns the number of backup receipts the output-commit rule
// currently requires on a recording namespace: min(CommitQuorum, live
// backups), or all live backups when no quorum is configured.
func (ns *Namespace) QuorumNeed() int {
	if ns.rec == nil {
		return 0
	}
	return ns.rec.quorumNeed()
}

// SeqCursor is one thread's replication cursor: its ft_pid and the
// per-thread sequence number (Seq_thread) it has reached.
type SeqCursor struct {
	FTPid int
	Seq   uint64
}

// Cursors returns the namespace's checkpoint cursor state: the global
// sequence watermark plus every thread's Seq_thread, sorted by ft_pid
// (the threads map iterates in arbitrary order; the sort restores a
// deterministic, comparable view).
func (ns *Namespace) Cursors() (seqGlobal uint64, threads []SeqCursor) {
	threads = make([]SeqCursor, 0, len(ns.threads))
	for _, th := range ns.threads {
		threads = append(threads, SeqCursor{FTPid: th.ftpid, Seq: th.seq})
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].FTPid < threads[j].FTPid })
	switch {
	case ns.rec != nil:
		seqGlobal = ns.rec.seqGlobal
	case ns.rep != nil:
		seqGlobal = ns.rep.head()
	}
	return seqGlobal, threads
}

// ObjCursors returns the per-object sequencing cursors — each sequencing
// object's Seq_obj this side has passed — sorted by object key (the cursor
// maps iterate in arbitrary order; the sort restores a deterministic,
// comparable view). Together with the Lamport watermark from Cursors they
// form the sharded checkpoint cut; with one det shard the recorder still
// maintains them, so checkpoints taken before a WithDetShards change stay
// verifiable after it.
func (ns *Namespace) ObjCursors() []ObjCursor {
	var m map[uint64]uint64
	switch {
	case ns.rec != nil:
		m = ns.rec.objSeq
	case ns.rep != nil:
		m = ns.rep.objDone
	}
	out := make([]ObjCursor, 0, len(m))
	for k, v := range m { // ftvet:nondet collect-then-sort
		out = append(out, ObjCursor{Obj: k, Seq: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out
}

// NextFTPid returns the next ft_pid the namespace would assign — part of
// the rejoin checkpoint, so replica identity assignment agrees after a
// resync.
func (ns *Namespace) NextFTPid() int { return ns.nextFTPid }

// Env returns the replicated environment mirror.
func (ns *Namespace) Env() map[string]string { return ns.env }

// AddReplica wires a fresh backup into a recording namespace and streams
// the retained history as catch-up (Config.Rejoinable). onCaughtUp runs
// when the backup has received every message ever sent and the link flips
// into the output-commit set. It returns the link index for DropReplica.
func (ns *Namespace) AddReplica(log, acks *shm.Ring, onCaughtUp func()) int {
	if ns.role != RolePrimary {
		panic("replication: AddReplica on a non-recording namespace")
	}
	return ns.rec.AddReplica(log, acks, onCaughtUp)
}

// OnReplayHead arms fn to run when the replayer's head reaches seq; the
// rejoin checkpoint verifier compares cursors exactly at the watermark.
func (ns *Namespace) OnReplayHead(seq uint64, fn func()) {
	if ns.rep == nil {
		panic("replication: OnReplayHead on a non-replaying namespace")
	}
	ns.rep.OnHead(seq, fn)
}

// ResumeFrom installs an epoch checkpoint's thread-identity table for the
// restore that follows: the next len(threads) replicated-thread creations
// (Start for ft_pid 1, then SpawnThread for each subsequent pin, in
// ascending ft_pid order — the original global assignment order) adopt
// their checkpointed ft_pid and Seq_thread instead of assigning fresh
// identity through an OpThreadCreate section. nextFTPid is the
// checkpoint's assignment high-water mark, restored once the pins drain.
// A checkpoint without threads (genesis) installs nothing: every thread is
// then created afresh, through its recorded section.
func (ns *Namespace) ResumeFrom(threads []SeqCursor, nextFTPid int) {
	if len(threads) == 0 {
		return
	}
	pins := append([]SeqCursor(nil), threads...)
	sort.Slice(pins, func(i, j int) bool { return pins[i].FTPid < pins[j].FTPid })
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

// Quiesce acquires every det-section lock in shard order, freezing the
// namespace at a section boundary: no replicated thread is mid-section,
// so the replicated state is exactly a deterministic function of the
// recorded prefix. The returned func releases the locks in reverse
// order. This is the epoch cutter's final stop-the-world.
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
// truncates the retained log at the boundary and acks the epoch.
func (ns *Namespace) OnEpoch(fn func(EpochMark) bool) {
	if ns.rep == nil {
		panic("replication: OnEpoch on a non-replaying namespace")
	}
	ns.rep.OnEpoch(fn)
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
		ns.rec.seedEpochs(epoch)
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

// RetainedTuples and RetainedBytes report this side's retained tuple-log
// footprint (the ftns.log.retained.* gauges): the recorder's history on
// a recording side (including a promotion fork), the replayer's on a
// replaying one.
func (ns *Namespace) RetainedTuples() int {
	switch {
	case ns.rec != nil:
		return ns.rec.RetainedTuples()
	case ns.rep != nil:
		return ns.rep.RetainedTuples()
	}
	return 0
}

func (ns *Namespace) RetainedBytes() int64 {
	switch {
	case ns.rec != nil:
		return ns.rec.RetainedBytes()
	case ns.rep != nil:
		return ns.rep.RetainedBytes()
	}
	return 0
}

// GoLive stops recording on the primary side (called when the last backup
// replica dies). On other roles it is a no-op.
func (ns *Namespace) GoLive() {
	if ns.rec != nil {
		ns.rec.goLive()
	}
}

// DropReplica stops streaming to the i-th backup (it died); when no live
// backup remains the primary goes live. Only meaningful on the primary.
func (ns *Namespace) DropReplica(i int) {
	if ns.rec != nil {
		ns.rec.dropReplica(i)
	}
}

// Stats returns this side's replication statistics.
func (ns *Namespace) Stats() Stats {
	switch {
	case ns.rec != nil:
		return ns.rec.stats
	case ns.rep != nil:
		return ns.rep.stats
	}
	return Stats{}
}

// ThreadOf returns the Thread owning a kernel task. It panics for tasks
// outside the namespace — they have no replication identity.
func (ns *Namespace) ThreadOf(t *kernel.Task) *Thread {
	th, ok := ns.threads[t]
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

// exit closes th's section where enter opened it. out and data are the
// outcome and payload the section settled; the returned pair is what the
// caller acts on — the recorded one when the section replayed.
func (ns *Namespace) exit(th *Thread, out uint64, data []byte) (uint64, []byte) {
	th.task.Proc().GuardPark(nil)
	switch {
	case th.sec.replay:
		return ns.rep.exit(th, out)
	case th.sec.rec != nil:
		th.sec.rec.exit(th, out, data)
	}
	return out, data
}

// Enter implements pthread.Det.
func (ns *Namespace) Enter(t *kernel.Task, op pthread.Op, obj uint64) {
	if ns.role != RoleLive {
		ns.enter(ns.ThreadOf(t), op, obj)
	}
}

// Replay implements pthread.Det: true with the section open at the
// recorded turn on a replaying secondary; false — block first, then Enter —
// on every other side, including a secondary that promotion flushed out of
// replay while the thread was parked here.
func (ns *Namespace) Replay(t *kernel.Task, op pthread.Op, obj uint64) bool {
	if ns.role != RoleSecondary {
		return false
	}
	th := ns.ThreadOf(t)
	th.sec.checked = ns.rep.enter(th, op, obj)
	return th.sec.checked
}

// Exit implements pthread.Det.
func (ns *Namespace) Exit(t *kernel.Task, outcome uint64) uint64 {
	if ns.role == RoleLive {
		return outcome
	}
	out, _ := ns.exit(ns.ThreadOf(t), outcome, nil)
	return out
}

// SyscallU64 replicates a syscall returning a scalar.
func (ns *Namespace) SyscallU64(th *Thread, op pthread.Op, obj uint64, run func() uint64) uint64 {
	out, _ := ns.SyscallData(th, op, obj, func() (uint64, []byte) { return run(), nil })
	return out
}

// SyscallData replicates a syscall returning a scalar plus payload bytes
// (e.g. the data delivered by a socket read, §3.4): executed on the primary
// (outside the det-section lock — it may block, like accept or read) and
// recorded; replayed from the log on the secondary, where run executes only
// after failover promotion (live mode).
func (ns *Namespace) SyscallData(th *Thread, op pthread.Op, obj uint64, run func() (uint64, []byte)) (uint64, []byte) {
	var v uint64
	var data []byte
	if ns.role != RoleSecondary || !ns.rep.enter(th, op, obj) {
		v, data = run()
		ns.enter(th, op, obj)
	}
	return ns.exit(th, v, data)
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
	ns.threads[th.task] = th
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
		ns.exit(parent, 0, nil)
	}
	th := &Thread{ns: ns, ftpid: ftpid, seq: seq}
	th.task = ns.kern.Spawn(name, func(t *kernel.Task) { fn(th) })
	ns.threads[th.task] = th
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
