package replication

import (
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// stableWaiter is a piece of output waiting for its log watermark to be
// acknowledged by the secondary (output commit, §3.5).
type stableWaiter struct {
	watermark uint64
	fn        func()
	heldAt    sim.Time // when the wait began, for the commit-stall histogram
}

// ReplicaWatermark is one backup link's entry in the recorder's receipt
// watermark vector: the highest log-message receipt the backup has
// acknowledged, plus its link state. Nothing waits on it (stableQ does).
type ReplicaWatermark struct {
	// Index is the link's position in construction/AddReplica order — the
	// same index DropReplica takes.
	Index int
	// Watermark is the cumulative receipt acknowledgement: every log
	// message below it is in the backup's memory (§3.5).
	Watermark uint64
	// Dead marks a failed link; Syncing marks a rejoined backup still
	// replaying retained history, excluded from the output-commit set.
	Dead    bool
	Syncing bool
	// Backlog is the most routed, unreplayed tuples in one lane any of
	// the backup's acks reported.
	Backlog uint64
}

// replicaLink is the recorder's view of one backup replica: the outbox in
// front of its log ring (spilled tuples, the flush deadline, the dead mark),
// its acknowledgement ring, and the receipt watermark observed so far.
type replicaLink struct {
	shm.Outbox
	acks  *shm.Ring
	ackRx sim.Event // the acks ring's receiver
	acked uint64
	laneQ uint64 // ReplicaWatermark.Backlog

	// base is the log index of the first message the link's ring carries
	// (the window's base when it was added): ring delivery counts are
	// ring-local, so receipt watermarks derived from them add it.
	base uint64

	// epochAcked is the highest epoch boundary this backup has verified
	// and truncated its own log at (msgEpochAck).
	epochAcked uint64

	// span is the link's open zero-copy reservation, published in one
	// Commit when the batch fills, the outbox's deadline fires or an
	// output commit forces it. The outbox is the spill path for tuples no
	// reservation could take (ring full); while it holds any, new tuples
	// go behind them, never to a fresh span, or the log would reorder. The
	// ring's generation check makes a recycled span read closed.
	span shm.Span

	// A syncing link is a rejoined backup still catching up: it reads the
	// retained window from cur, where new emits land too, it is out of the
	// output-commit set, and it joins the broadcast set the instant cur
	// reaches the window's end.
	syncing bool
	held    bool // out of the commit and epoch quorums until released (Namespace.HoldReplica)
	cur     winCursor
}

// receiptObs is one pending observation of a log-ring delivery, one
// coherency hop after it lands: a pooled record with its own re-armable
// event, since several can be in flight inside one hop.
type receiptObs struct {
	r    *Recorder
	link *replicaLink
	ev   sim.Event
}

func (o *receiptObs) fire() {
	r, link := o.r, o.link
	o.link = nil
	r.obsFree = append(r.obsFree, o)
	if d := link.base + uint64(link.Ring().Delivered()); d > link.acked {
		link.acked = d
		r.fireStable()
	}
}

// Recorder is the primary-side engine: it serializes deterministic
// sections under the det-section locks (one: the global mutex of Figure 3)
// and broadcasts the log to any number of backups (§6). Output is stable
// once the commit quorum of the live caught-up backups has received it
// (quorumOf). Tuples are written in place into each backup's open ring
// reservation and published as one Commit; reservation order is
// publication order, so concurrent flushes need no mutual exclusion.
type Recorder struct {
	kern     *kernel.Kernel
	cfg      Config
	replicas []*replicaLink

	mus        []*pthread.Mutex  // det-section locks; one = the global mutex of Figure 3
	objSeq     map[uint64]uint64 // next Seq_obj per sequencing object
	seqGlobal  uint64
	sent       uint64
	stableQ    []stableWaiter // stableQ[stableHead:] wait for output commit, oldest first
	stableHead int
	degraded   bool // recording with no caught-up backup
	hist       logWindow
	stats      Stats

	heldEpoch, heldSent uint64 // a verified cut a catch-up cursor holds back

	// epochCuts maps a cut epoch number to its truncation base (the
	// sent watermark at the cut); epochSeen is the latest epoch cut,
	// epochDone the highest epoch already truncated (or vacuously
	// settled). onEpochQuorum, if set, runs when an epoch reaches its
	// ack quorum — core uses it to promote the epoch's checkpoint to
	// "latest verified" and release the pending cut.
	epochCuts     map[uint64]uint64
	epochSeen     uint64
	epochDone     uint64
	onEpochQuorum func(epoch uint64)

	// ackScratch is the quorum rule's reusable sort buffer.
	ackScratch []uint64
	obsFree    []*receiptObs // fired receipt observations, reused by the next delivery

	out shm.Outboxes // the links' outboxes, in link order, and their spill server

	sc          *obs.Scope
	cTuples     *obs.Counter
	hCommitWait *obs.Histogram
	hBatchFill  *obs.Histogram
	hFlushLag   *obs.Histogram
	hShardWait  *obs.Histogram
	cShardSecs  []*obs.Counter // per-shard section counts
}

// newShardLocks builds the det-section lock array: one pthread mutex per
// shard, on a private zero-cost library so lock traffic is pure
// synchronization (the section's CPU cost is charged explicitly).
func newShardLocks(k *kernel.Kernel, shards int) []*pthread.Mutex {
	plib := pthread.NewLib(k, nil)
	plib.SetOpCost(0)
	mus := make([]*pthread.Mutex, shards)
	for i := range mus {
		mus[i] = plib.NewMutex()
	}
	return mus
}

// forkSeed is what a recorder starts from: the zero seed is a boot. A
// promoted replica's fork continues the dead primary's sequence space —
// seqGlobal plus the per-object cursors — and inherits the replayed
// history, for a backup rejoined later to catch up from.
type forkSeed struct {
	hist      logWindow
	seqGlobal uint64
	objSeq    map[uint64]uint64
}

// newRecorder builds a recorder streaming to one backup per log+ack ring
// pair. Without any — a fork at the instant of promotion — it starts
// degraded, recording with no backup links. cfg has its batch defaults.
func newRecorder(k *kernel.Kernel, cfg Config, logs, acks []*shm.Ring, seed forkSeed) *Recorder {
	if len(logs) != len(acks) {
		panic("replication: recorder needs one log+ack ring pair per backup")
	}
	if seed.objSeq == nil {
		seed.objSeq = make(map[uint64]uint64)
	}
	r := &Recorder{
		kern:      k,
		cfg:       cfg,
		mus:       newShardLocks(k, cfg.DetShards),
		objSeq:    seed.objSeq,
		seqGlobal: seed.seqGlobal,
		sent:      seed.hist.end(),
		hist:      seed.hist,
		degraded:  len(logs) == 0,
		epochCuts: make(map[uint64]uint64),
	}
	r.out.Init(k.Domain(), cfg.FlushInterval)
	for i := range logs {
		r.addLink(&replicaLink{acks: acks[i]}, logs[i])
	}
	k.Spawn("ft-spill", func(t *kernel.Task) { r.out.Serve(t.Proc()) })
	return r
}

// addLink registers one backup link: the receipt watermark observed from
// the mailbox consumer-side slot state, and the explicit ack consumer.
func (r *Recorder) addLink(link *replicaLink, log *shm.Ring) {
	r.replicas = append(r.replicas, link)
	r.out.Attach(&link.Outbox, log, func() { r.flushLink(link) }, func(n int, _ uint64) { r.noteFlush(n) })
	// Output stability requires only that a backup has RECEIVED the
	// log for subsequent live replay (§3.5), not that it has processed
	// it: the primary learns of receipt by observing the mailbox
	// consumer-side slot state, one coherency hop after delivery.
	k := r.kern
	log.OnDelivered(func() {
		var o *receiptObs
		if n := len(r.obsFree); n > 0 {
			o, r.obsFree = r.obsFree[n-1], r.obsFree[:n-1]
		} else {
			o = &receiptObs{r: r}
			o.ev.Init(k.Domain(), o.fire)
		}
		o.link = link
		o.ev.Reset(log.Latency())
	})
	// Explicit cumulative acknowledgements carry the receipt watermark and
	// the epoch acks; a log-ring slot frees on receipt, never on an ack.
	// They are consumed here so the ack ring never fills.
	link.ackRx.Init(k.Domain(), func() { r.drainAcks(link) })
	link.acks.OnReceive(&link.ackRx)
}

// catchupChunkBytes bounds one vectored catch-up transfer so the bulk
// replay never monopolizes the log ring against fresh emissions.
const catchupChunkBytes = 256 << 10

// AddReplica wires a fresh backup into the recorder and streams the
// retained window to it from a cursor as catch-up, while recording
// continues. The link is syncing — out of output commit — until the cursor
// reaches the window's end, where everything sent has been received; then
// it joins the broadcast set and onCaughtUp, if non-nil, runs. It returns
// the link index for DropReplica.
func (r *Recorder) AddReplica(log, acks *shm.Ring, onCaughtUp func()) int {
	link := &replicaLink{acks: acks, syncing: true, base: r.hist.base, cur: r.hist.cursor()}
	idx := len(r.replicas)
	r.addLink(link, log)
	r.kern.Spawn("ft-catchup", func(t *kernel.Task) { r.catchupLoop(t, link, onCaughtUp) })
	return idx
}

// catchupLoop streams the window from the syncing link's cursor in bounded
// vectored chunks, each decoded into one reused batch. New emissions land
// in the same window, so at its end the backup has every message sent, and
// the link flips with no yield between the last send and the flip.
func (r *Recorder) catchupLoop(t *kernel.Task, link *replicaLink, onCaughtUp func()) {
	p := t.Proc()
	batch := make([]shm.Message, 0, min(r.hist.end()-link.cur.at, catchupChunkBytes/tupleBytes))
	for link.cur.at < r.hist.end() && !link.Dead() {
		batch = batch[:0]
		for bytes := 0; link.cur.at < r.hist.end() && bytes < catchupChunkBytes; {
			batch = append(batch, r.hist.next(&link.cur))
			bytes += batch[len(batch)-1].Size
		}
		link.Ring().SendBatch(p, batch)
		if link.Dead() {
			return // abandonLink killed the link under the blocked send
		}
		r.noteFlush(len(batch))
		r.releaseHeldCut()
	}
	if link.Dead() {
		return
	}
	link.syncing = false
	r.degraded = false
	r.sc.Emit(obs.CatchupDone, 0, int64(r.sent), 0)
	r.fireStable()
	if onCaughtUp != nil {
		onCaughtUp()
	}
}

func (r *Recorder) drainAcks(link *replicaLink) {
	for m, ok := link.acks.TryRecv(); ok; m, ok = link.acks.TryRecv() {
		switch m.Kind {
		case msgEpochAck:
			// Epoch-boundary acknowledgement: the backup verified the
			// epoch's digest at its replay frontier and truncated its
			// own retained log there.
			if e := m.W[0]; e > link.epochAcked {
				link.epochAcked = e
				r.maybeTruncateEpochs()
			}
		default:
			// Cumulative receipt watermark (absolute: a rejoined backup
			// seeds its processed count from the checkpoint it restored).
			link.laneQ = max(link.laneQ, m.W[1])
			if v := m.W[0]; v > link.acked {
				link.acked = v
				r.fireStable()
			}
		}
	}
}

// ackedAll is the receipt watermark output commit releases against: the
// quorumOf the live caught-up backups' receipts (syncing links excluded).
func (r *Recorder) ackedAll() uint64 {
	return r.quorumOf(func(l *replicaLink) uint64 { return l.acked }, r.sent)
}

// quorumOf applies the commit-quorum rule to one mark of every live
// caught-up link: the k-th highest, all-of-the-living when fewer than k
// remain, and vacuous when none does.
func (r *Recorder) quorumOf(mark func(*replicaLink) uint64, vacuous uint64) uint64 {
	marks := r.ackScratch[:0]
	for _, link := range r.replicas {
		if !link.Dead() && !link.syncing && !link.held {
			marks = append(marks, mark(link))
		}
	}
	r.ackScratch = marks[:0]
	if len(marks) == 0 {
		return vacuous // no live backup left: everything is (vacuously) stable
	}
	k := r.cfg.CommitQuorum
	if k <= 0 || k > len(marks) {
		k = len(marks)
	}
	return kthHighest(marks, k)
}

// kthHighest sorts marks in descending order in place and returns the k-th
// (1-based). Insertion sort: there are at most N−1 marks, and sort.Slice
// costs a closure and a reflect swapper on every output-commit check.
func kthHighest(marks []uint64, k int) uint64 {
	for i := 1; i < len(marks); i++ {
		for j := i; j > 0 && marks[j] > marks[j-1]; j-- {
			marks[j], marks[j-1] = marks[j-1], marks[j]
		}
	}
	return marks[k-1]
}

// quorumNeed is the number of backup receipts the commit rule currently
// requires: min(CommitQuorum, live backups), or all live backups when no
// quorum is configured.
func (r *Recorder) quorumNeed() int {
	live, _ := r.backups()
	if r.cfg.CommitQuorum <= 0 || r.cfg.CommitQuorum > live {
		return live
	}
	return r.cfg.CommitQuorum
}

// Watermarks returns the receipt watermark vector in link order. Failover
// election ranks surviving backups by it, and the failover flight dump
// snapshots it to show how far each loser was behind.
func (r *Recorder) Watermarks() []ReplicaWatermark {
	out := make([]ReplicaWatermark, 0, len(r.replicas))
	for i, link := range r.replicas {
		out = append(out, ReplicaWatermark{Index: i, Watermark: link.acked, Dead: link.Dead(), Syncing: link.syncing, Backlog: link.laneQ})
	}
	return out
}

// backups counts the links that are alive: live ones are caught up and in
// the output-commit set, syncing ones still replay retained history.
func (r *Recorder) backups() (live, syncing int) {
	for _, link := range r.replicas {
		switch {
		case link.Dead():
		case link.syncing:
			syncing++
		default:
			live++
		}
	}
	return live, syncing
}

// emit retains one log message and streams it to every live backup: into
// the link's open ring reservation, published when the batch fills, or —
// ring full — spilled to the link's outbox, whose blocking flush throttles
// the primary to the slowest backup's drain rate. The message is counted
// first, so a flush it triggers traces the watermark it publishes.
func (r *Recorder) emit(t *kernel.Task, m shm.Message) {
	r.hist.append(m)
	r.sent++
	r.stats.LogMessages++
	for _, link := range r.replicas {
		if link.Dead() {
			continue
		}
		if link.syncing {
			continue // already in the window, behind the link's catch-up cursor
		}
		if r.emitSpan(link, m) {
			continue
		}
		// Spill path: no reservation available.
		link.Add(m)
		if link.Len() >= r.cfg.BatchTuples {
			link.Flush(t.Proc())
		}
	}
}

// emitSpan tries the zero-copy path: write m into the link's open span,
// claiming one when none is open, and publish once the batch fills. It
// reports false when m must spill: no room, or spilled tuples queued.
func (r *Recorder) emitSpan(link *replicaLink, m shm.Message) bool {
	if link.Len() > 0 {
		return false
	}
	if !link.span.Open() {
		if !r.openSpan(link, int64(m.Size)) {
			return false
		}
	}
	if !link.span.Put(m) {
		// Slot or byte budget exhausted: publish what is written and
		// claim a fresh span for this tuple.
		r.commitSpan(link)
		if !r.openSpan(link, int64(m.Size)) {
			return false
		}
		link.span.Put(m)
	}
	if link.span.Len() >= r.cfg.BatchTuples {
		r.commitSpan(link)
	}
	return true
}

// openSpan claims a fresh reservation sized for one batch (at least
// minBytes, so an epoch marker gets a span of its own) and arms
// the flush deadline.
func (r *Recorder) openSpan(link *replicaLink, minBytes int64) bool {
	n := r.cfg.BatchTuples
	budget := max(int64(n)*tupleBytes, minBytes)
	sp := link.Ring().TryReserve(n, budget)
	if !sp.Open() {
		return false
	}
	link.span = sp
	link.Arm()
	return true
}

// commitSpan publishes the link's open span as one vectored transfer. An
// empty span releases its reservation without a transfer, so a deadline
// and a force-flush in one instant send one batch. Never blocks.
func (r *Recorder) commitSpan(link *replicaLink) {
	sp := link.span
	link.span = shm.Span{}
	if !sp.Open() {
		return
	}
	link.Disarm() // nothing spills while a span is open: the link is empty
	n := sp.Len()
	if n == 0 {
		sp.Abort()
		return
	}
	sp.Commit()
	r.noteFlush(n)
}

// flushLink publishes what the link holds without blocking — it runs in
// scheduler context, from the outbox's deadline and from flushForCommit:
// the open span, then whatever spilled behind it.
func (r *Recorder) flushLink(link *replicaLink) {
	r.commitSpan(link)
	link.TryFlush()
}

// flushForCommit pushes every buffered tuple toward the backups before an
// output-commit watermark (r.sent, covering them) is armed.
func (r *Recorder) flushForCommit() {
	for _, link := range r.replicas {
		if !link.Dead() {
			r.flushLink(link)
		}
	}
}

// EmitEpoch streams an epoch-checkpoint marker through the log. The caller
// holds every det-section lock, so the marker lands at log position
// mark.Sent == r.sent. size is the checkpoint's accounted ring footprint.
func (r *Recorder) EmitEpoch(t *kernel.Task, mark EpochMark, size int) {
	if mark.Sent != r.sent {
		panic("replication: epoch mark not cut at the current log watermark")
	}
	r.epochCuts[mark.Epoch] = mark.Sent
	if mark.Epoch > r.epochSeen {
		r.epochSeen = mark.Epoch
	}
	r.emit(t, epochMessage(&mark, size))
	r.stats.EpochCuts++
	// With no live caught-up backup the quorum is vacuous (mirroring
	// vacuous output stability): the prefix is truncated immediately —
	// any future rejoin starts from the checkpoint core retains.
	r.maybeTruncateEpochs()
}

// epochAckedAll is ackedAll for epoch boundaries: the highest epoch the
// commit quorum has verified, vacuously the latest cut epoch.
func (r *Recorder) epochAckedAll() uint64 {
	return r.quorumOf(func(l *replicaLink) uint64 { return l.epochAcked }, r.epochSeen)
}

// maybeTruncateEpochs advances the primary's truncation to the highest
// quorum-acknowledged epoch. No-op while epoch checkpoints are not in
// use (no cuts registered, all epochAcked zero), so the non-epoch
// engine's execution — and its trace — is untouched.
func (r *Recorder) maybeTruncateEpochs() {
	acked := r.epochAckedAll()
	if acked <= r.epochDone {
		return
	}
	var bestEpoch, bestBase uint64
	for e, base := range r.epochCuts {
		if e <= acked {
			if e > bestEpoch {
				bestEpoch, bestBase = e, base
			}
			delete(r.epochCuts, e)
		}
	}
	r.epochDone = acked
	if bestEpoch != 0 {
		r.truncateHistory(bestEpoch, bestBase)
	}
}

// truncateHistory drops the retained prefix below a verified epoch's marker
// at log index verifiedSent, or holds the cut while a catch-up cursor is
// behind it (releaseHeldCut).
func (r *Recorder) truncateHistory(verifiedEpoch, verifiedSent uint64) {
	if verifiedSent > r.catchupFloor() {
		r.heldEpoch, r.heldSent = verifiedEpoch, verifiedSent
		return
	}
	if verifiedSent >= r.heldSent {
		r.heldEpoch, r.heldSent = 0, 0
	}
	moved, ok := r.hist.truncate(verifiedEpoch, verifiedSent, &r.stats, r.sc)
	if !ok {
		panic("replication: verified epoch boundary beyond retained history")
	}
	if moved && r.onEpochQuorum != nil {
		r.onEpochQuorum(verifiedEpoch)
	}
}

// catchupFloor is the lowest log index a catch-up has yet to read.
func (r *Recorder) catchupFloor() uint64 {
	floor := r.hist.end()
	for _, link := range r.replicas {
		if link.syncing && !link.Dead() {
			floor = min(floor, link.cur.at)
		}
	}
	return floor
}

// releaseHeldCut truncates at the held cut once no cursor is behind it.
func (r *Recorder) releaseHeldCut() {
	if r.heldEpoch != 0 && r.heldSent <= r.catchupFloor() {
		r.truncateHistory(r.heldEpoch, r.heldSent)
	}
}

// quiesce acquires every det-section lock in shard order and returns the
// release. With all held every replicated thread sits at a section
// boundary, so the state is a function of the recorded prefix; the fixed
// order makes concurrent quiescers (cutter, rejoin) deadlock-free.
func (r *Recorder) quiesce(t *kernel.Task) func() {
	for _, mu := range r.mus {
		mu.Lock(t)
	}
	return func() {
		for i := len(r.mus) - 1; i >= 0; i-- {
			r.mus[i].Unlock(t)
		}
	}
}

// commitSeqs advances one section's cursors — all but Seq_thread for a
// wake-up, which no shadow thread replays. The advance happens BEFORE the
// emit's first possible yield, so a concurrent section on another shard
// can never observe a half-advanced cursor state (and GlobalSeq stays
// unique).
func (r *Recorder) commitSeqs(th *Thread, key uint64, op pthread.Op) {
	if !isWake(op) {
		th.seq++
	}
	r.seqGlobal++
	r.objSeq[key]++
	r.stats.Sections++
}

// enter opens one recorded section for th: it acquires the det-section lock
// owning the sequencing object and pays the section cost. The wait for the
// lock is sampled into the shard-contention histogram (the global-mutex
// contention when DetShards is 1) and travels on the DetEnter event as the
// sequencer-wait stage of the causal critical path. What exit needs stays
// in the thread.
func (r *Recorder) enter(th *Thread, op pthread.Op, obj uint64) {
	th.mustBeClosed()
	t := th.task
	key := th.ns.seqKey(op, obj)
	shard := pthread.ShardOf(key, len(r.mus))
	start := t.Now()
	r.mus[shard].Lock(t)
	wait := int64(t.Now().Sub(start))
	r.hShardWait.Observe(wait)
	r.sc.EmitDet(obs.DetEnter, th.ftpid, int64(r.seqGlobal), wait, key, int64(r.objSeq[key]))
	t.Busy(r.cfg.SectionCost)
	th.sec = section{rec: r, op: op, obj: obj, key: key, shard: shard}
	th.opened(op, obj)
}

// exit closes the section enter opened: the tuple — with the section's
// outcome (a wake-up's, as wakeOutcome records it) — gets its cursors and
// is streamed, then the det-section lock is released.
func (r *Recorder) exit(th *Thread, out uint64) {
	sec := th.sec
	th.sec = section{}
	t, key := th.task, sec.key
	tu := Tuple{ThreadSeq: th.seq, GlobalSeq: r.seqGlobal, ObjSeq: r.objSeq[key], FTPid: th.ftpid, Op: sec.op, Obj: sec.obj,
		Key: key, Outcome: th.ns.wakeOutcome(sec.op, out)}
	r.commitSeqs(th, key, sec.op)
	r.emit(t, tu.message())
	r.noteTuple(th, tu)
	r.cShardSec(sec.shard).Inc()
	r.sc.EmitDet(obs.DetExit, th.ftpid, int64(tu.GlobalSeq), 0, key, int64(tu.ObjSeq))
	r.mus[sec.shard].Unlock(t)
}

// recordWake records the broadcast, waking n waiters, a promoted replica
// applies to condition variable obj (sequenced on key) as its fork starts.
// No thread made it; the fork has no backup yet, so emit never blocks.
func (r *Recorder) recordWake(obj, key, n uint64) {
	tu := Tuple{GlobalSeq: r.seqGlobal, ObjSeq: r.objSeq[key], Op: pthread.OpCondBroadcast, Obj: obj, Key: key, Outcome: n}
	r.commitSeqs(nil, key, tu.Op)
	r.emit(nil, tu.message())
}

// noteTuple records one emitted tuple's lifecycle event and count. The
// event carries the full alignment identity <obj, Seq_obj> so the causal
// layer can pair it with the backup's Replay grant of the same section.
func (r *Recorder) noteTuple(th *Thread, tu Tuple) {
	r.sc.EmitDet(obs.TupleEmit, th.ftpid, int64(tu.GlobalSeq), tupleBytes, tu.Key, int64(tu.ObjSeq))
	r.cTuples.Inc()
}

// onStable invokes fn once the secondary has acknowledged every log message
// sent so far. A strict waiter always forces a flush of buffered tuples
// BEFORE the watermark is armed, so batching never adds to output-commit
// latency. Under relaxed output commit fn runs immediately.
func (r *Recorder) onStable(fn func()) {
	if !r.cfg.StrictOutputCommit {
		fn()
		return
	}
	r.flushForCommit()
	w := r.sent
	if r.ackedAll() >= w {
		r.hCommitWait.Observe(0)
		fn()
		return
	}
	r.sc.Emit(obs.OutputHeld, 0, int64(w), 0)
	r.stableQ = append(r.stableQ, stableWaiter{watermark: w, fn: fn, heldAt: r.kern.Sim().Now()})
}

func (r *Recorder) fireStable() {
	acked := r.ackedAll()
	for r.stableHead < len(r.stableQ) && r.stableQ[r.stableHead].watermark <= acked {
		w := r.stableQ[r.stableHead]
		r.stableQ, r.stableHead = sim.PopFront(r.stableQ, r.stableHead)
		wait := int64(r.kern.Sim().Now().Sub(w.heldAt))
		r.sc.Emit(obs.OutputReleased, 0, int64(w.watermark), wait)
		r.hCommitWait.Observe(wait)
		w.fn()
	}
}

// dropReplica stops streaming to one dead backup; with no live backup left
// the recorder degrades. Index i matches the ring order given at
// construction.
func (r *Recorder) dropReplica(i int) {
	if i < 0 || i >= len(r.replicas) || r.replicas[i].Dead() {
		return
	}
	r.abandonLink(r.replicas[i])
	r.fireStable()
	r.maybeTruncateEpochs() // the dead link no longer gates epoch quorum
	r.releaseHeldCut()      // nor holds a cut back
	for _, link := range r.replicas {
		if !link.Dead() {
			return
		}
	}
	r.degrade()
}

// abandonLink marks a link dead and discards its open span, which would
// jam the dead ring's publication sequence, and, killing the outbox, the
// spill buffer, whose drain unblocks the senders parked on it.
func (r *Recorder) abandonLink(link *replicaLink) {
	link.span.Abort()
	link.span = shm.Span{}
	link.Kill()
}

// degrade marks every backup dead but keeps recording: sections stay
// serialized and the history grows for a fresh backup to catch up from,
// while output stability is vacuous — held output is released — until one
// does. Abandoning the links also unblocks a section stalled on a full ring.
func (r *Recorder) degrade() {
	for _, link := range r.replicas {
		if !link.Dead() {
			r.abandonLink(link)
		}
	}
	if !r.degraded {
		r.degraded = true
		r.sc.Emit(obs.Unreplicated, 0, int64(r.sent), 0)
	}
	r.fireStable()
}
