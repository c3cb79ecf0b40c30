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

// ReplicaWatermark is one backup link's entry in the recorder's
// per-replica receipt watermark vector: the highest log-message receipt
// the backup has acknowledged, plus its link state. It is plain data —
// nothing ever waits on the vector itself (the armable output-commit
// waiters live in stableQ).
type ReplicaWatermark struct {
	// Index is the link's position in construction/AddReplica order — the
	// same index DropReplica takes.
	Index int
	// Watermark is the cumulative receipt acknowledgement: every log
	// message below it is in the backup's memory (§3.5 receipt, not
	// processing).
	Watermark uint64
	// Dead marks a failed link; Syncing marks a rejoined backup still
	// replaying retained history, excluded from the output-commit set.
	Dead    bool
	Syncing bool
}

// replicaLink is the recorder's view of one backup replica: the outbox in
// front of its log ring (spilled tuples, the flush deadline, the dead mark),
// its acknowledgement ring, and the receipt watermark observed so far.
type replicaLink struct {
	shm.Outbox
	idx   int
	acks  *shm.Ring
	ackRx sim.Event // the acks ring's receiver
	acked uint64

	// base is the absolute log index of the first message this link's
	// ring ever carries: zero for a boot-time link, the recorder's
	// truncation base for a link added after epoch truncation started
	// dropping history. Ring delivery counts are ring-local, so every
	// receipt watermark derived from them is offset by base.
	base uint64

	// epochAcked is the highest epoch boundary this backup has verified
	// against its replay watermark and truncated its own log at
	// (msgEpochAck). The primary truncates retained history once a
	// commit-quorum of backups has acknowledged an epoch.
	epochAcked uint64

	// span is the link's open zero-copy reservation: emitted tuples are
	// written straight into the ring's reserved slots and published in one
	// Commit when the batch fills (or the outbox's deadline, which an open
	// span arms, or an output commit forces it). The outbox is the spill
	// path — tuples buffered off-ring when no reservation could be claimed
	// (ring full). While it is non-empty new tuples must append behind it,
	// never to a fresh span: the spill was reserved later than nothing, so
	// writing around it would reorder the log.
	// The span handle is kept across DropInflight, Drain and abandonLink;
	// the ring's generation check makes it read closed once its record has
	// been recycled.
	span shm.Span

	// A syncing link is a rejoined backup still catching up: new emits
	// append to its backlog behind the retained history, it is excluded
	// from the output-commit set, and it flips into the broadcast set at
	// the instant the backlog drains — the quiesced boundary at which the
	// deployment is replicated again.
	// backlog[backlogHead:] is still to be sent.
	syncing     bool
	backlog     []shm.Message
	backlogHead int
}

// receiptObs is one pending observation of a log-ring delivery: the primary
// sees the consumer-side slot state one coherency hop after the transfer
// lands. Several can be in flight inside one hop and each keeps its own
// place in the event order, so each is a pooled record with its own
// re-armable event.
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
		r.noteMark(link)
		r.fireStable()
	}
}

// Recorder is the primary-side engine: it serializes deterministic
// sections under the namespace det-section locks and streams the log. It
// supports any number of backup replicas (the paper's prototype uses one;
// §6 sketches the extension to more): the log is broadcast to every
// backup, and output is stable once the commit quorum of the live
// caught-up backups has received it (quorumOf) — every one of them when
// Config.CommitQuorum is 0, the paper's rule.
//
// With Config.DetShards == 1 there is a single lock — the namespace-wide
// global mutex of Figure 3 — and recording is byte-identical to the
// unsharded engine. With more shards each sequencing object hashes to one
// lock, sections on different objects run concurrently, and every tuple
// carries its object's own Seq_obj; GlobalSeq degrades to a Lamport
// watermark that is still unique and monotone per thread and per object.
//
// Tuples are coalesced per backup — written in place into an open ring
// reservation (zero-copy) and published as one Commit when the batch
// fills, when the link's FlushInterval deadline fires, or —
// unconditionally — when an output-commit waiter registers, so strict
// output commit never waits on buffering. The batch size is the
// batchController's output; at one, the paper's configuration, a span
// fills and commits inside the emit that opened it. Because ring
// reservation order is publication order, concurrent flushes need no
// mutual exclusion: a later batch physically cannot overtake an earlier
// one.
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
	live       bool
	degraded   bool // recording with no caught-up backup (Config.Rejoinable)
	hist       logWindow
	stats      Stats

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

	// marks is the per-replica receipt watermark vector, refreshed at
	// every link-state transition (ack, delivery, death, catch-up flip);
	// it is what Watermarks exposes to failover election and the flight
	// recorder. ackScratch is the quorum rule's reusable sort buffer.
	marks      map[int]ReplicaWatermark
	ackScratch []uint64
	obsFree    []*receiptObs // fired receipt observations, reused by the next delivery

	out  shm.Outboxes // the links' outboxes, in link order, and their spill server
	ctrl batchController

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

// forkSeed is what a recorder starts from. The zero seed is a boot: an
// empty history, sequence numbers from zero. A promoted replica's fork
// (Config.Rejoinable) continues the dead primary's sequence space —
// seqGlobal plus the per-object cursors — and inherits the replayed
// history, so a backup rejoined later can catch up from the fork's
// retention base: zero for a full-history backup, the latest verified
// epoch boundary for one that truncated at epoch checkpoints.
type forkSeed struct {
	hist      logWindow
	seqGlobal uint64
	objSeq    map[uint64]uint64
}

// newRecorder builds a recorder streaming to one backup per log+ack ring
// pair. Without any — a fork at the instant of promotion — it starts
// degraded, recording with no backup links.
func newRecorder(k *kernel.Kernel, cfg Config, logs, acks []*shm.Ring, seed forkSeed) *Recorder {
	if len(logs) != len(acks) {
		panic("replication: recorder needs one log+ack ring pair per backup")
	}
	cfg = cfg.WithBatchDefaults()
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
		marks:     make(map[int]ReplicaWatermark),
		epochCuts: make(map[uint64]uint64),
		ctrl:      newBatchController(cfg),
	}
	r.out.Init(k.Sim(), cfg.FlushInterval, k.Alive)
	for i := range logs {
		r.addLink(&replicaLink{acks: acks[i]}, logs[i])
	}
	k.Spawn("ft-spill", func(t *kernel.Task) { r.out.Serve(t.Proc()) })
	return r
}

// addLink registers one backup link: the receipt watermark observed from
// the mailbox consumer-side slot state, and the explicit ack consumer.
func (r *Recorder) addLink(link *replicaLink, log *shm.Ring) {
	link.idx = len(r.replicas)
	r.replicas = append(r.replicas, link)
	r.noteMark(link)
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
			o.ev.Init(k.Sim(), o.fire)
		}
		o.link = link
		o.ev.Reset(log.Latency())
	})
	// Explicit cumulative acknowledgements free log-ring slots faster
	// under backlog and serve as a liveness signal; they are consumed
	// here so the ring never fills.
	receive(k, link.acks, &link.ackRx, func() { r.drainAcks(link) })
}

// receive makes drain the ring's receiver event on k until k dies.
func receive(k *kernel.Kernel, ring *shm.Ring, ev *sim.Event, drain func()) {
	ev.Init(k.Sim(), drain)
	ring.OnReceive(ev)
	k.OnPanic(func(kernel.PanicReason) { ring.OnReceive(nil) })
}

// catchupChunkBytes bounds one vectored catch-up transfer so the bulk
// replay never monopolizes the log ring against fresh emissions.
const catchupChunkBytes = 256 << 10

// AddReplica wires a fresh backup into the recorder and streams the
// retained history to it as catch-up, while recording continues. The link
// starts in the syncing state — excluded from output commit, fed through
// its backlog — and joins the broadcast set at the quiesced det-section
// boundary where the backlog drains empty (the output-commit watermarks
// of the two sides are equal there: everything sent has been received).
// onCaughtUp, if non-nil, runs at that flip. It returns the link index
// for DropReplica.
func (r *Recorder) AddReplica(log, acks *shm.Ring, onCaughtUp func()) int {
	if !r.cfg.Rejoinable {
		panic("replication: AddReplica requires Config.Rejoinable")
	}
	link := &replicaLink{acks: acks, syncing: true, base: r.hist.base}
	link.backlog = r.hist.msgs.AppendTo(nil)
	idx := len(r.replicas)
	r.addLink(link, log)
	r.kern.Spawn("ft-catchup", func(t *kernel.Task) { r.catchupLoop(t, link, onCaughtUp) })
	return idx
}

// catchupLoop drains the syncing link's backlog in bounded vectored
// chunks. Because new emissions append to the same backlog, draining it
// empty means the backup has received every message ever sent — at that
// instant the link flips into the output-commit set atomically (no yield
// between the last send completing and the flip).
func (r *Recorder) catchupLoop(t *kernel.Task, link *replicaLink, onCaughtUp func()) {
	p := t.Proc()
	for link.backlogHead < len(link.backlog) && !link.Dead() {
		queued := link.backlog[link.backlogHead:]
		n, bytes := 0, 0
		for n < len(queued) && bytes < catchupChunkBytes {
			bytes += queued[n].Size
			n++
		}
		link.Ring().SendBatch(p, queued[:n])
		if link.Dead() {
			return // abandonLink dropped the backlog under the blocked send
		}
		// New emissions appended while the send was blocked; the queue
		// slides only now that the batch has been copied out.
		link.backlog, link.backlogHead = sim.DropFront(link.backlog, link.backlogHead, n)
		r.noteFlush(n)
	}
	if link.Dead() {
		return
	}
	link.syncing = false
	r.degraded = false
	r.noteMark(link)
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
			if v := m.W[0]; v > link.acked {
				link.acked = v
				r.noteMark(link)
				r.fireStable()
			}
		}
	}
}

// ackedAll reports the receipt watermark the output-commit rule exposes.
// With Config.CommitQuorum 0 it is the minimum over every live caught-up
// backup — the conservative all-backups rule of §3.5. With CommitQuorum
// k > 0 it is the k-th-highest receipt watermark among them: any k
// backups covering a tuple make it stable, so the slowest N−k replicas
// drop off the commit path. When fewer than k live links remain the rule
// degrades to all-of-the-living (k = live), never promising more
// stability than the survivors provide. Syncing links are excluded:
// while a rejoined backup catches up, output stability is whatever the
// remaining set provides (vacuous when it is empty — the degraded window
// the resync exists to close).
func (r *Recorder) ackedAll() uint64 {
	return r.quorumOf(func(l *replicaLink) uint64 { return l.acked }, r.sent)
}

// quorumOf applies the commit-quorum rule to one mark of every live
// caught-up link: the k-th highest, all-of-the-living when fewer than k
// remain, and vacuous when none does.
func (r *Recorder) quorumOf(mark func(*replicaLink) uint64, vacuous uint64) uint64 {
	marks := r.ackScratch[:0]
	for _, link := range r.replicas {
		if !link.Dead() && !link.syncing {
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

// noteMark refreshes one link's entry in the per-replica receipt
// watermark vector. The vector is plain observable data — the armable
// output-commit waiters live in stableQ, guarded by flushForCommit —
// so storing into it needs no flush first.
func (r *Recorder) noteMark(link *replicaLink) {
	r.marks[link.idx] = ReplicaWatermark{
		Index:     link.idx,
		Watermark: link.acked,
		Dead:      link.Dead(),
		Syncing:   link.syncing,
	}
}

// Watermarks returns the per-replica receipt watermark vector in link
// (construction/AddReplica) order. Failover election ranks surviving
// backups by it, and the flight recorder snapshots it into the failover
// dump so a post-mortem can see exactly how far each loser was behind.
func (r *Recorder) Watermarks() []ReplicaWatermark {
	out := make([]ReplicaWatermark, 0, len(r.replicas))
	for i := range r.replicas {
		out = append(out, r.marks[i])
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

// emit streams one log message to every live backup: it writes the tuple
// in place into the link's open ring reservation (zero-copy) and publishes
// when the effective batch fills. When no reservation can be claimed (ring
// full) tuples spill to the link's outbox and a blocking vectored flush
// throttles the primary to the slowest backup's drain rate. At a batch of
// one that is Ring.Send: reserve, put and commit here, or — ring full —
// this task claims its FIFO ticket and blocks in the outbox's Flush.
func (r *Recorder) emit(t *kernel.Task, m shm.Message) {
	if r.cfg.Rejoinable {
		r.hist.append(m)
	}
	eff := r.ctrl.eff
	for _, link := range r.replicas {
		if link.Dead() {
			continue
		}
		if link.syncing {
			// Catch-up in progress: queue behind the history so the
			// backup sees one gapless sequence on one channel.
			link.backlog = append(link.backlog, m)
			continue
		}
		if r.emitSpan(link, m, eff) {
			continue
		}
		// Spill path: no reservation available.
		link.Add(m)
		if link.Len() >= eff {
			link.Flush(t.Proc())
		}
	}
	r.sent++
	r.stats.LogMessages++
}

// emitSpan tries the zero-copy path: write m into the link's open span,
// claiming a fresh reservation when none is open, and publish once the
// effective batch fills. It reports false when the tuple must spill
// instead — the ring has no room, or earlier work is already queued
// (spilled tuples or a blocked reservation, which writing around would
// reorder).
func (r *Recorder) emitSpan(link *replicaLink, m shm.Message, eff int) bool {
	if link.Len() > 0 {
		return false
	}
	if !link.span.Open() {
		if !r.openSpan(link, eff, int64(m.Size)) {
			return false
		}
	}
	if !link.span.Put(m) {
		// Slot or byte budget exhausted: publish what is written and
		// claim a fresh span for this tuple.
		r.commitSpan(link)
		if !r.openSpan(link, eff, int64(m.Size)) {
			return false
		}
		link.span.Put(m)
	}
	if link.span.Len() >= eff {
		r.commitSpan(link)
	}
	return true
}

// openSpan claims a fresh reservation sized for the effective batch (at
// least minBytes, so an oversized data tuple gets a span of its own) and
// arms the flush deadline.
func (r *Recorder) openSpan(link *replicaLink, eff int, minBytes int64) bool {
	budget := int64(eff) * tupleBytes
	if budget < minBytes {
		budget = minBytes
	}
	sp := link.Ring().TryReserve(eff, budget)
	if !sp.Open() {
		return false
	}
	link.span = sp
	link.Arm()
	return true
}

// commitSpan publishes the link's open span as one vectored transfer —
// the single release-store of the reserve/commit protocol. An empty span
// releases its reservation without a transfer, which is what makes a
// flush deadline firing in the same scheduler instant as an output-commit
// force-flush harmless: whichever runs second finds nothing to send and
// sends nothing (no empty batch on the wire, no spurious flush sample).
// Never blocks, so it is safe in scheduler context.
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
// output-commit watermark is armed. A spill buffer handed to the spill
// server holds nothing up: the waiter's watermark is r.sent, which covers
// buffered tuples, so output cannot be released before they are genuinely
// delivered.
func (r *Recorder) flushForCommit() {
	for _, link := range r.replicas {
		if !link.Dead() {
			r.flushLink(link)
		}
	}
}

// EmitEpoch streams an epoch-checkpoint marker through the ordinary log
// stream. The caller (the core cutter task) holds every det-section lock,
// so no tuple can interleave: the marker lands at log position mark.Sent
// == r.sent, making "everything before the marker" on a backup exactly
// the prefix the checkpoint replaces. size is the checkpoint's accounted
// ring footprint.
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

// epochAckedAll is the epoch-boundary analogue of ackedAll: the highest
// epoch a commit-quorum of live caught-up backups has verified-and-
// truncated (k-th-highest epochAcked), degrading to all-of-the-living,
// and vacuously the latest cut epoch when no live caught-up backup
// remains.
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

// truncateHistory drops the retained-log prefix below a verified epoch
// boundary (verifiedSent is the absolute log index of the epoch marker): a
// checkpoint a quorum of backups holds subsumes it.
func (r *Recorder) truncateHistory(verifiedEpoch, verifiedSent uint64) {
	moved, ok := r.hist.truncate(verifiedEpoch, verifiedSent, &r.stats, r.sc)
	if !ok {
		panic("replication: verified epoch boundary beyond retained history")
	}
	if moved && r.onEpochQuorum != nil {
		r.onEpochQuorum(verifiedEpoch)
	}
}

// RetainedTuples and RetainedBytes expose the retained-log footprint for
// the ftns.log.retained.* gauges.
func (r *Recorder) RetainedTuples() int  { return r.hist.msgs.Len() }
func (r *Recorder) RetainedBytes() int64 { return r.hist.bytes }

// seedEpochs initializes the epoch counters on a recorder forked at
// promotion, so the new primary's first cut continues the dead primary's
// epoch sequence instead of restarting at 1.
func (r *Recorder) seedEpochs(epoch uint64) {
	r.epochSeen = epoch
	r.epochDone = epoch
}

// quiesce acquires every det-section lock in shard index order and
// returns the matching release (reverse order). With all shard locks
// held no section can be mid-flight: every replicated thread sits at a
// section boundary, so the replicated state is exactly a deterministic
// function of the recorded prefix — the property the epoch cutter's
// final stop-the-world pass relies on. The fixed acquisition order makes
// concurrent quiescers (cutter vs. rejoin) deadlock-free.
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

// commitSeqs assigns one section's tuple cursors and advances every
// counter. Sharded, the advance happens BEFORE the emit's first possible
// yield, so a concurrent section on another shard can never observe a
// half-advanced cursor state (and GlobalSeq stays unique); unsharded, the
// advance stays after the emit, preserving the exact pre-sharding
// execution byte for byte.
func (r *Recorder) commitSeqs(th *Thread, key uint64) {
	th.seq++
	r.seqGlobal++
	r.objSeq[key]++
	r.stats.Sections++
}

// enter opens one recorded section for th: it acquires the det-section lock
// owning the sequencing object and pays the section cost. The wait for the
// lock is sampled into the shard-contention histogram (the global-mutex
// contention when DetShards is 1) and travels on the DetEnter event as the
// sequencer-wait stage of the causal critical path. What exit needs stays
// in the thread. A recorder that has gone live opens nothing.
func (r *Recorder) enter(th *Thread, op pthread.Op, obj uint64) {
	th.mustBeClosed()
	if r.live {
		return
	}
	t := th.task
	key := objKey(op, obj)
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

// exit closes the section enter opened: the tuple — with the outcome and
// payload bytes of a resolve section, zero and nil otherwise — gets its
// cursors and is streamed, then the det-section lock is released.
func (r *Recorder) exit(th *Thread, out uint64, data []byte) {
	sec := th.sec
	th.sec = section{}
	t, key := th.task, sec.key
	tu := Tuple{ThreadSeq: th.seq, GlobalSeq: r.seqGlobal, ObjSeq: r.objSeq[key], FTPid: th.ftpid, Op: sec.op, Obj: sec.obj, Outcome: out, Data: data}
	if len(r.mus) > 1 {
		r.commitSeqs(th, key)
		r.emit(t, tu.message(sec.shard))
		r.noteTuple(th, tu, key)
	} else {
		r.emit(t, tu.message(sec.shard))
		r.noteTuple(th, tu, key)
		r.commitSeqs(th, key)
	}
	r.cShardSec(sec.shard).Inc()
	r.sc.EmitDet(obs.DetExit, th.ftpid, int64(tu.GlobalSeq), 0, key, int64(tu.ObjSeq))
	r.mus[sec.shard].Unlock(t)
}

// noteTuple records one emitted tuple's lifecycle event and count. The
// event carries the full alignment identity <obj, Seq_obj> so the causal
// layer can pair it with the backup's Replay grant of the same section.
func (r *Recorder) noteTuple(th *Thread, tu Tuple, key uint64) {
	r.sc.EmitDet(obs.TupleEmit, th.ftpid, int64(tu.GlobalSeq), int64(tu.size()), key, int64(tu.ObjSeq))
	r.cTuples.Inc()
}

// onStable invokes fn once the secondary has acknowledged every log message
// sent so far. A strict waiter always forces a flush of buffered tuples
// BEFORE the watermark is armed, so batching never adds to output-commit
// latency. Under relaxed output commit (or after going live) fn runs
// immediately.
func (r *Recorder) onStable(fn func()) {
	if !r.cfg.StrictOutputCommit || r.live {
		fn()
		return
	}
	r.flushForCommit()
	w := r.sent
	if r.ackedAll() >= w {
		r.hCommitWait.Observe(0)
		r.ctrl.observeCommit(false)
		fn()
		return
	}
	r.ctrl.observeCommit(true)
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
// the recorder goes fully live. Index i matches the ring order given at
// construction.
func (r *Recorder) dropReplica(i int) {
	if i < 0 || i >= len(r.replicas) || r.replicas[i].Dead() {
		return
	}
	r.abandonLink(r.replicas[i])
	r.fireStable()
	r.maybeTruncateEpochs() // the dead link no longer gates epoch quorum
	for _, link := range r.replicas {
		if !link.Dead() {
			return
		}
	}
	r.goLive()
}

// goLive stops recording: every backup is gone (failed, or replication was
// torn down), so sections run unserialized and all held output is
// released. A rejoinable recorder never stops recording — it degrades
// instead, keeping the history growing so a fresh backup can catch up.
func (r *Recorder) goLive() {
	if r.live {
		return
	}
	if r.cfg.Rejoinable {
		r.degrade()
		return
	}
	r.live = true
	r.sc.Emit(obs.GoLive, 0, int64(r.sent), 0)
	r.fireStable()
	// Unblock any section stalled on a full log ring: the receivers are
	// gone, so the buffered log is discarded and the senders released.
	for _, link := range r.replicas {
		if !link.Dead() {
			r.abandonLink(link)
		}
	}
}

// abandonLink marks a link dead and discards its unpublished state: the
// backlog, its open span — an open reservation on the dead ring would
// otherwise jam the ring's publication sequence forever, stalling any
// sender still parked on it — and, killing the outbox, the spill buffer;
// the kill's drain then unblocks those senders.
func (r *Recorder) abandonLink(link *replicaLink) {
	link.backlog, link.backlogHead = nil, 0
	link.span.Abort()
	link.span = shm.Span{}
	link.Kill()
	r.noteMark(link)
}

// degrade marks every backup dead but keeps recording: sections stay
// serialized and the history keeps growing, output stability becomes
// vacuous until a rejoined backup catches up.
func (r *Recorder) degrade() {
	for _, link := range r.replicas {
		if !link.Dead() {
			r.abandonLink(link)
		}
	}
	if !r.degraded {
		r.degraded = true
		r.sc.Emit(obs.GoLive, 0, int64(r.sent), 0)
	}
	r.fireStable()
}
