package replication

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// headSub is one callback armed to fire when the replay head reaches a
// global sequence number. While any sub is armed, grants at or past the
// earliest armed watermark are withheld so the replayed set at fire time
// is exactly the prefix below it — the property the rejoin checkpoint
// verifier compares cursor vectors under.
type headSub struct {
	seq uint64
	fn  func()
	// epoch marks an epoch-boundary verification sub: dropped at
	// promotion (the primary that cut the epoch is dead, and a stale
	// barrier would wedge the post-promotion drain-replay).
	epoch bool
}

// lane is one dispatch queue on the secondary: receipt routes messages
// here in ring order and the lane's owner pays the per-message
// dispatch cost — in parallel across lanes. q is queued. The owner is a
// stackless task, its two continuations stored once (see dispatch).
type lane struct {
	q                sim.Log[shm.Message]
	owner            *kernel.Task
	dispatchK, paidK func()
}

// domain is one sequencing domain's row of the grant table.
type domain struct {
	key     uint64
	seen    uint64         // next domain seq expected off the ring (duplicate filter, gap check)
	q       sim.Log[Tuple] // arrived and not yet replayed
	granted bool           // a granted section of this domain is executing
	known   bool           // entered in the rescan order
}

// Replayer is the secondary-side engine: it pulls the primary's log off the
// shared-memory ring and delivers deterministic-section turns to shadow
// threads from one grant table keyed by sequencing domain (see domain).
// With DetShards > 1 every sequencing object is its own domain, so shadow
// threads on independent objects replay concurrently; with one shard the
// whole log is a single domain ordered by Seq_global — the paper's total
// order. Either way the scalar replay head is the Lamport frontier (every
// GlobalSeq below it has been replayed).
type Replayer struct {
	kern *kernel.Kernel
	cfg  Config
	log  *shm.Ring
	acks *shm.Ring

	// The grant table, keyed by sequencing domain.
	doms       map[uint64]*domain
	domOrder   []*domain       // domains in first-arrival order: the deterministic rescan order
	unreplayed int             // total tuples queued across domains
	frontier   uint64          // Lamport replay head: every GlobalSeq < frontier is replayed
	ahead      map[uint64]bool // replayed GlobalSeqs at or past the frontier
	lanes      []*lane

	// objDone is keyed by the real sequencing object whatever the domain:
	// the per-object cursor vector checkpoints compare and forks continue
	// from.
	objDone map[uint64]uint64

	waiting   map[int]*Thread // shadow threads parked for their turn, by ft_pid
	waitOrder []int           // ftpids in park order, for deterministic live-flush
	processed uint64
	recvBuf   []shm.Message // the receive buffer, reused batch after batch

	env      map[string]string
	envSeen  bool // env message routed (duplicate filter)
	envReady bool // env delivered: visible to the application
	envQ     sim.WaitQueue

	live        bool
	primaryDead bool
	logRx       sim.Event // the log ring's receiver with more than one shard
	stats       Stats

	// Rejoin support: the ingested log is retained so that, at promotion,
	// the namespace forks into a recording primary continuing the same
	// history; parked shadow threads flushed by promotion delegate their
	// sections to the fork so the history has no gap. headSubs are
	// watermark callbacks used by the rejoin checkpoint verifier.
	hist     logWindow
	ns       *Namespace // forked at promotion; its condition variables take applied wake-ups
	headSubs []headSub

	// Epoch checkpointing (core.WithEpochCheckpoints): baseSeqGlobal is
	// the GlobalSeq the retained window starts at.
	// epochSeen filters duplicate markers; epochBase is the seeded
	// checkpoint's epoch (its own marker arrives first off the catch-up
	// stream and is retained without re-verification). epochAckPend is
	// an epoch ack the full ack ring refused, retried at the next
	// receipt. onEpoch, set by core, verifies a marker's digest against
	// the replayed state at its exact frontier.
	baseSeqGlobal uint64
	epochSeen     uint64
	epochBase     uint64
	epochAckPend  uint64
	onEpoch       func(mark EpochMark) bool

	sc         *obs.Scope
	cAcks      *obs.Counter
	hRecvBatch *obs.Histogram
	hGrantWait *obs.Histogram
}

func newReplayer(k *kernel.Kernel, cfg Config, log, acks *shm.Ring) *Replayer {
	r := &Replayer{
		kern:    k,
		cfg:     cfg.WithBatchDefaults(),
		log:     log,
		acks:    acks,
		doms:    make(map[uint64]*domain),
		ahead:   make(map[uint64]bool),
		waiting: make(map[int]*Thread),
		objDone: make(map[uint64]uint64),
	}
	r.lanes = make([]*lane, r.cfg.DetShards)
	// Lane ownership: with more than one shard each lane gets a grant task
	// and receipt is the log ring's receiver event; with one, the pull task
	// receives and drains lane 0 itself (see dispatch).
	if r.cfg.DetShards > 1 {
		r.logRx.Init(k.Domain(), func() {
			for log.Len() > 0 {
				r.receipt(log.TryRecvBatchInto(r.recvBuf[:0], r.cfg.BatchTuples))
			}
		})
		log.OnReceive(&r.logRx)
	}
	for i := range r.lanes {
		ln := &lane{}
		r.lanes[i] = ln
		ln.dispatchK = func() { r.dispatch(ln) }
		ln.paidK = func() { r.deliver(ln); r.dispatch(ln) }
		name := "ft-replay"
		if r.cfg.DetShards > 1 {
			name = fmt.Sprintf("ft-grant.%d", i)
		}
		ln.owner = k.SpawnStackless(name, ln.dispatchK)
	}
	return r
}

// domain maps a tuple to its sequencing domain and its rank there: its
// Key and Seq_obj with DetShards > 1, the single domain 0 and Seq_global
// with one shard — which makes the paper's total order the grant table
// with one key.
func (r *Replayer) domain(tu Tuple) (key, seq uint64) {
	if r.cfg.DetShards > 1 {
		return tu.Key, tu.ObjSeq
	}
	return 0, tu.GlobalSeq
}

// dom returns a domain's grant-table row, creating it on first sight.
func (r *Replayer) dom(key uint64) *domain {
	d := r.doms[key]
	if d == nil {
		d = &domain{key: key}
		r.doms[key] = d
	}
	return d
}

// head is the scalar replay watermark, the Lamport frontier.
func (r *Replayer) head() uint64 { return r.frontier }

// receipt acknowledges one received batch and routes each message to its
// lane WITHOUT paying the dispatch cost — the lane owners pay it.
func (r *Replayer) receipt(batch []shm.Message) {
	r.recvBuf = batch
	r.hRecvBatch.Observe(int64(len(batch)))
	// Acknowledge at receipt (§3.5): the whole batch is already safe in
	// this replica's memory for subsequent live replay, so one
	// cumulative ack covers all of it.
	r.processed += uint64(len(batch))
	if len(batch) > 1 {
		r.stats.LogBatches++
	}
	if r.acks.TrySend(ackMessage(msgTuple, r.processed, r.backlog())) {
		r.stats.AckMessages++
		r.cAcks.Inc()
		r.sc.Emit(obs.AckSend, 0, int64(r.processed), 0)
	}
	r.retryEpochAck()
	for _, m := range batch {
		r.route(m)
	}
}

// route performs the receive-side bookkeeping for one message, in ring
// order: duplicate filtering, the gap check, history retention (the
// retained order must respect every per-thread and per-object order, which
// ring order does and per-lane completion order would not), then hand-off
// to a lane. Tuples go to their object's lane; the environment rides lane 0
// (it pays one dispatch like any message); epoch markers need no dispatch.
func (r *Replayer) route(m shm.Message) {
	switch m.Kind {
	case msgEnv:
		if r.envSeen {
			r.stats.Duplicates++
			return
		}
		r.envSeen = true
		r.enqueue(r.lanes[0], m)
	case msgTuple:
		tu := tupleOf(m)
		key, seq := r.domain(tu)
		d := r.dom(key)
		if seq < d.seen {
			// Behind the domain's ring cursor: a stale duplicate
			// (injected duplication, or promotion-drain overlap).
			r.stats.Duplicates++
			return
		}
		if seq > d.seen {
			// The mailbox is FIFO and coherency loss only truncates a
			// suffix, so a gap cannot occur — dead primary or not.
			panic(fmt.Sprintf("replication: log gap: %v expected seq %d in domain %d", tu, d.seen, key))
		}
		d.seen = seq + 1
		r.enqueue(r.lanes[pthread.ShardOf(tu.Key, len(r.lanes))], m)
	case msgEpoch:
		if mark, ok := m.Ref.(*EpochMark); ok && !r.noteEpoch(*mark) {
			r.stats.Duplicates++
			return
		}
	}
	r.hist.append(m)
	r.stats.LogMessages++
}

// backlog is the busiest lane's routed messages not yet replayed: the
// dispatches a promotion now would owe before the promoted side serves.
func (r *Replayer) backlog() (n uint64) {
	for _, ln := range r.lanes {
		n = max(n, uint64(ln.q.Len()))
	}
	return n
}

func (r *Replayer) enqueue(ln *lane, m shm.Message) {
	ln.q.Append(m)
	ln.owner.Wake()
}

// dispatch is a lane owner's loop: it pays the per-message dispatch cost
// for the lane's head BEFORE delivering (popping) it in paidK — if promotion
// kills the owner mid-dispatch, the message is still queued and the
// promotion drain delivers it; popping first would lose a message this
// replica already acknowledged (§3.5). Lanes progress independently, the
// replay-side analogue of the recorder's sharded det locks; a grant task
// with an empty lane parks until receipt routes it a message. At one shard
// the pull task drains lane 0 before it receives again, so receipt waits
// for dispatch, the log ring backpressures the primary, and the per-tuple
// cost (riding wake_up_process to hand turns to shadow threads) bounds the
// secondary's replay rate — the §4.1 serial-dispatch bottleneck. More
// shards pay it concurrently, lifting that ceiling by the shard count.
func (r *Replayer) dispatch(ln *lane) {
	for ln.q.Len() == 0 {
		if r.cfg.DetShards > 1 {
			ln.owner.ParkThen(ln.dispatchK)
			return
		}
		batch := r.log.TryRecvBatchInto(r.recvBuf[:0], r.cfg.BatchTuples)
		if len(batch) == 0 {
			ln.owner.WaitThen(r.log, ln.dispatchK)
			return
		}
		r.receipt(batch)
	}
	ln.owner.ComputeThen(r.cfg.ReplayDispatchCost, ln.paidK)
}

// deliver pops one lane's head message and applies it: the environment
// becomes visible to the application, a tuple enters the grant table.
func (r *Replayer) deliver(ln *lane) {
	m := ln.q.PopFront()
	switch m.Kind {
	case msgEnv:
		r.env, _ = m.Ref.(map[string]string)
		r.envReady = true
		r.envQ.WakeAll(0)
	case msgTuple:
		tu := tupleOf(m)
		key, _ := r.domain(tu)
		d := r.dom(key)
		r.track(d)
		d.q.Append(tu)
		r.unreplayed++
		r.tryGrant(d)
	}
}

// track enters a domain into the deterministic rescan order on first sight.
func (r *Replayer) track(d *domain) {
	if !d.known {
		d.known = true
		r.domOrder = append(r.domOrder, d)
	}
}

// SeedCheckpoint initializes a fresh replayer from an epoch checkpoint
// instead of sequence zero: the replay cursors, the per-object duplicate
// filters, the env mirror, and the receipt count all start at the
// checkpoint's watermarks, so the first message off the catch-up stream
// — the checkpoint's own epoch marker — is exactly the next expected log
// index. Must run before any log message arrives (the core rejoin path
// calls it in the same atomic instant that cuts the checkpoint and
// attaches the link). epoch is the checkpoint's epoch number; its marker
// is retained without re-verification. The env message is the log's first
// entry, so the env mirror is seeded exactly when the checkpoint's prefix
// is non-empty: seeding from the all-zero genesis checkpoint leaves the
// replayer as constructed, waiting for the env off the ring.
func (r *Replayer) SeedCheckpoint(epoch, seqGlobal, sent uint64, objs []ObjCursor, env map[string]string) {
	r.frontier = seqGlobal
	r.baseSeqGlobal = seqGlobal
	r.processed = sent
	r.hist.base = sent
	r.epochBase = epoch
	for _, c := range objs {
		r.objDone[c.Obj] = c.Seq
		// The next tuple each domain expects is the one that would carry
		// this cursor (any Seq_global > 0 implies at least one cursor).
		key, seq := r.domain(Tuple{Key: c.Obj, ObjSeq: c.Seq, GlobalSeq: seqGlobal})
		d := r.dom(key)
		d.seen = seq
		r.track(d)
	}
	if sent > 0 {
		r.env = env
		r.envSeen = true
		r.envReady = true
		r.envQ.WakeAll(0)
	}
}

// noteEpoch handles one epoch marker off the ring, in ring order. It
// reports false for a stale duplicate (not retained). A fresh marker is
// always retained — at exactly the log index the primary cut it at, or
// replay has silently diverged from the primary's numbering — and, when
// a verifier is installed, armed for verification at the marker's exact
// replay frontier.
func (r *Replayer) noteEpoch(mark EpochMark) bool {
	if mark.Epoch <= r.epochSeen {
		return false
	}
	r.epochSeen = mark.Epoch
	if r.onEpoch == nil || mark.Epoch <= r.epochBase {
		return true
	}
	if at := r.hist.end(); at != mark.Sent {
		r.diverge(fmt.Sprintf("epoch %d marker arrived at log index %d, cut at %d", mark.Epoch, at, mark.Sent))
		return true
	}
	r.addHeadSub(headSub{seq: mark.SeqGlobal, fn: func() { r.verifyEpoch(mark) }, epoch: true})
	return true
}

// verifyEpoch runs at the marker's exact replay frontier (armed via the
// head-sub grant barrier, so the replayed prefix is quiesced): the
// verifier recomputes the checkpoint digest from local replayed state,
// and a match makes the boundary safe to truncate at — everything below
// it is subsumed by a checkpoint this replica has verified it could have
// produced itself. The ack tells the primary this backup no longer needs
// the prefix retained.
func (r *Replayer) verifyEpoch(mark EpochMark) {
	if r.live || r.primaryDead {
		return
	}
	if !r.onEpoch(mark) {
		r.diverge(fmt.Sprintf("epoch %d digest mismatch at Seq_global %d: replayed state does not reproduce the primary's checkpoint", mark.Epoch, mark.SeqGlobal))
		return
	}
	r.truncateAt(mark)
	r.sendEpochAck(mark.Epoch)
}

// truncateAt drops this replica's retained history below a verified
// epoch marker; only a verified marker's base is accepted.
func (r *Replayer) truncateAt(mark EpochMark) {
	moved, ok := r.hist.truncate(mark.Epoch, mark.Sent, &r.stats, r.sc)
	if !ok {
		r.diverge(fmt.Sprintf("epoch %d verified boundary %d beyond retained history end %d",
			mark.Epoch, mark.Sent, r.hist.end()))
	} else if moved {
		r.baseSeqGlobal = mark.SeqGlobal
	}
}

// sendEpochAck sends (or queues, when the ack ring is momentarily full)
// the epoch-boundary acknowledgement; retryEpochAck drains the queued
// one at the next receipt.
func (r *Replayer) sendEpochAck(epoch uint64) {
	if r.acks.TrySend(ackMessage(msgEpochAck, epoch, 0)) {
		r.stats.AckMessages++
		return
	}
	r.epochAckPend = max(r.epochAckPend, epoch)
}

func (r *Replayer) retryEpochAck() {
	if r.epochAckPend != 0 && r.acks.TrySend(ackMessage(msgEpochAck, r.epochAckPend, 0)) {
		r.epochAckPend = 0
		r.stats.AckMessages++
	}
}

func (r *Replayer) waitEnv(t *kernel.Task) map[string]string {
	for !r.envReady && !r.live {
		r.envQ.Wait(t.Proc())
	}
	return r.env
}

// noteGrant records a replay grant with the tuple's alignment identity
// <obj, Seq_obj> (matching the primary's TupleEmit of the same section)
// and the time the shadow thread spent parked before the grant — the
// replay-grant-wait stage of the causal critical path.
func (r *Replayer) noteGrant(th *Thread, tu Tuple) {
	wait := int64(r.kern.Sim().Now().Sub(th.sec.parkedAt))
	r.sc.EmitDet(obs.Replay, tu.FTPid, int64(tu.GlobalSeq), wait, tu.Key, int64(tu.ObjSeq))
}

// grantBarrier is the earliest armed head watermark: while the rejoin
// verifier waits at W, no tuple with GlobalSeq >= W may be granted, so
// the replayed set at frontier == W is exactly [0, W). Deadlock-free: the
// recorded prefix is closed under per-thread and per-object predecessors
// (GlobalSeq increases along both orders), so replay below the barrier
// always makes progress.
func (r *Replayer) grantBarrier() uint64 {
	w := ^uint64(0)
	for _, s := range r.headSubs {
		w = min(w, s.seq)
	}
	return w
}

// tryGrant hands the head of one domain's queue to its shadow thread if
// the thread has arrived at the matching point in its program order.
// Thread-order matching happens here — with per-object domains the thread
// may legitimately still be short of this tuple while its earlier sections
// on other objects replay; op/object divergence is detected by verify
// after the grant. A wake-up needs no thread: it is applied at once.
func (r *Replayer) tryGrant(d *domain) {
	if r.live || d.granted || d.q.Len() == 0 {
		return
	}
	tu := *d.q.At(0)
	if tu.GlobalSeq >= r.grantBarrier() {
		return
	}
	if isWake(tu.Op) {
		r.applyWake(tu)
		return
	}
	th, ok := r.waiting[tu.FTPid]
	if !ok || th.seq != tu.ThreadSeq {
		return
	}
	delete(r.waiting, tu.FTPid)
	i := slices.Index(r.waitOrder, tu.FTPid)
	r.waitOrder = slices.Delete(r.waitOrder, i, i+1)
	d.granted = true
	th.sec.tuple = tu
	r.noteGrant(th, tu)
	if th.sec.wait.Grant(r.cfg.ReplaySectionCost) {
		th.sec.paid = r.cfg.ReplaySectionCost
	}
}

// applyWake applies a recorded signal, broadcast or timeout to the
// backup's condition variable — the signaler skipped its call and the
// waiter armed no timer (pthread.Det.Wakes) — and counts a divergence if it
// wakes other waiters than the primary did. A timeout dequeues the waiter
// that recorded it, if a wake-up has not.
func (r *Replayer) applyWake(tu Tuple) {
	var out uint64
	if c := r.ns.lib.Cond(tu.Obj); c != nil {
		if tu.Op == pthread.OpCondTimeout {
			out = c.TimeOut(func(t *kernel.Task) bool { return r.ns.ThreadOf(t).ftpid == tu.FTPid })
		} else {
			out = c.Wake(tu.Op == pthread.OpCondBroadcast)
		}
		out = r.ns.wakeOutcome(tu.Op, out)
	}
	if out != tu.Outcome {
		r.diverge(fmt.Sprintf("%v woke %d, recorded %d (obj=%d)", tu.Op, out, tu.Outcome, tu.Obj))
	}
	r.sc.EmitDet(obs.Replay, tu.FTPid, int64(tu.GlobalSeq), 0, tu.Key, int64(tu.ObjSeq))
	r.sectionDone(tu)
}

// tryGrantAll rescans every domain's queue in first-arrival order — a
// deterministic order, unlike a map walk — after an event that can unblock
// more than one domain (a park, a completed section, a lifted barrier).
func (r *Replayer) tryGrantAll() {
	for _, d := range r.domOrder {
		r.tryGrant(d)
	}
}

// park registers the calling shadow thread and blocks until its turn,
// reporting true with the granted tuple in th.sec — or false when promotion
// flushed it to the fork instead. The thread waits on its task's
// wait record; the rest lives in th.sec, with the replay cost a grant paid
// inside the parked thread's one wake-up (paid, not part of the wait).
func (r *Replayer) park(th *Thread) bool {
	if _, dup := r.waiting[th.ftpid]; dup {
		panic(fmt.Sprintf("replication: ft_pid %d parked twice", th.ftpid))
	}
	start := th.task.Now()
	w := th.task.Waiter()
	th.sec = section{wait: w, parkedAt: start}
	r.waiting[th.ftpid] = th
	r.waitOrder = append(r.waitOrder, th.ftpid)
	r.tryGrantAll()
	w.Park()
	r.hGrantWait.Observe(int64(th.task.Now().Sub(start) - th.sec.paid))
	return !th.sec.flushed
}

// sectionDone runs after the granted shadow thread finished executing its
// section: it releases the domain, advances the object's cursor and folds
// the completed GlobalSeq into the Lamport frontier.
func (r *Replayer) sectionDone(tu Tuple) {
	key, _ := r.domain(tu)
	d := r.doms[key]
	d.granted = false
	d.q.DropFront(1)
	r.objDone[tu.Key] = tu.ObjSeq + 1
	r.unreplayed--
	r.stats.Sections++
	r.ahead[tu.GlobalSeq] = true
	for r.ahead[r.frontier] {
		delete(r.ahead, r.frontier)
		r.frontier++
	}
	// Fire watermark subs BEFORE rescanning: removing a sub lifts the
	// barrier, and its callback is scheduled ahead of any wake the rescan
	// issues, so the verifier observes the exact barrier-frozen state.
	r.fireHeadSubs()
	r.tryGrantAll()
	if r.primaryDead && r.unreplayed == 0 {
		r.finishPromotion()
	}
}

// addHeadSub arms a head sub: its callback runs when the replay head
// reaches its seq (at once if it already has), grants at or past seq
// withheld meanwhile so the replayed set is exactly the prefix below it.
func (r *Replayer) addHeadSub(s headSub) {
	if r.head() >= s.seq {
		r.kern.Domain().Schedule(0, s.fn)
		return
	}
	r.headSubs = append(r.headSubs, s)
}

func (r *Replayer) fireHeadSubs() {
	for i := 0; i < len(r.headSubs); {
		if r.headSubs[i].seq <= r.head() {
			fn := r.headSubs[i].fn
			r.headSubs = append(r.headSubs[:i], r.headSubs[i+1:]...)
			r.kern.Domain().Schedule(0, fn)
			continue
		}
		i++
	}
}

func (r *Replayer) verify(th *Thread, op pthread.Op, obj uint64) {
	tu := th.sec.tuple
	if tu.Op == op && tu.Obj == obj && tu.ThreadSeq == th.seq {
		return
	}
	r.diverge(fmt.Sprintf("tuple %v does not match section op=%v obj=%d thread-seq=%d ft_pid=%d",
		tu, op, obj, th.seq, th.ftpid))
}

func (r *Replayer) diverge(msg string) {
	r.stats.Divergences++
	if r.cfg.PanicOnDivergence {
		r.kern.Panic("replay divergence: "+msg, nil)
	}
}

// enter opens one replayed section: the shadow thread parks until its
// tuple reaches the head of its sequencing domain, pays the replay cost and
// is checked against the tuple (op, object, thread sequence). It reports
// false, with nothing open, when the replica is live or promotion flushed
// the thread out of replay while it was parked: the caller then executes
// the operation itself — recording it, if promotion forked a recorder.
func (r *Replayer) enter(th *Thread, op pthread.Op, obj uint64) bool {
	th.mustBeClosed()
	if r.live {
		return false
	}
	if !r.park(th) {
		th.sec = section{}
		return false
	}
	th.task.Busy(r.cfg.ReplaySectionCost - th.sec.paid)
	r.verify(th, op, obj)
	th.sec.replay = true
	th.opened(op, obj)
	return true
}

// exit closes a replayed section and returns the recorded outcome and
// payload: the result of a syscall the secondary must not re-execute.
func (r *Replayer) exit(th *Thread) (uint64, []byte) {
	tu := th.sec.tuple
	th.sec = section{}
	th.seq++
	r.sectionDone(tu)
	return tu.Outcome, tu.Data
}

// Promote switches the replica from replay to live execution after the
// primary's death (§3.7): the remaining log is drained and replayed to the
// last stable point, then the namespace forks into a recording primary and
// every parked shadow thread is released to record its sections there.
func (r *Replayer) Promote() {
	if r.primaryDead || r.live {
		return
	}
	if r.cfg.DetShards > 1 {
		r.log.OnReceive(nil) // receipt; at one shard the pull task detaches itself
	}
	for _, ln := range r.lanes {
		ln.owner.Kill()
	}
	// Epoch verifications still armed are moot — the primary that cut
	// them is dead — and their grant barriers would wedge the
	// drain-replay below. Drop them; the rejoin verifier's subs stay.
	r.headSubs = slices.DeleteFunc(r.headSubs, func(s headSub) bool { return s.epoch })
	// Drain what the dead primary left in shared memory (§3.5: messages in
	// the mailbox survive the sender's death).
	drained := r.log.Drain()
	r.processed += uint64(len(drained))
	for _, m := range drained {
		r.route(m)
	}
	// The lane owners are dead: deliver everything routed (including what
	// they left queued mid-dispatch) directly, without dispatch cost.
	// Applied wake-ups complete sections in here: the primary is declared
	// dead only after, so none of them finishes the promotion mid-drain.
	for _, ln := range r.lanes {
		for ln.q.Len() > 0 {
			r.deliver(ln)
		}
	}
	r.primaryDead = true
	r.sc.Emit(obs.Promote, 0, int64(r.head()), int64(len(drained)))
	if r.unreplayed == 0 {
		r.finishPromotion()
	}
	// Otherwise replay continues as shadow threads arrive; the last
	// sectionDone completes the promotion.
}

func (r *Replayer) finishPromotion() {
	if r.live {
		return
	}
	r.live = true
	r.sc.Emit(obs.Unreplicated, 0, int64(r.head()), 0)
	// Fork BEFORE flushing waiters: their sections must be recorded by
	// the fork so the retained history stays gapless.
	hist, n := r.replayedHistory()
	r.ns.forkRecorder(forkSeed{hist: hist, seqGlobal: n, objSeq: r.objSeqSnapshot()})
	// The fork owns the history now (Namespace.RetainedTuples reads the
	// recorder from here on): a second copy would sit here unread for the
	// rest of the run.
	r.hist = logWindow{}
	// A signaler replaying ahead skipped wake-ups whose tuples the dead
	// primary may never have flushed: wake every waiter left — a spurious
	// wake-up, which POSIX permits and every waiter loops on — and record
	// it, so a backup rejoining the fork wakes the same waiters.
	for _, c := range r.ns.lib.Conds() {
		if n := c.Wake(true); n > 0 {
			r.ns.rec.recordWake(c.ID(), r.ns.seqKey(pthread.OpCondBroadcast, c.ID()), n)
		}
	}
	order := r.waitOrder
	r.waitOrder = nil
	for _, ftpid := range order {
		th := r.waiting[ftpid]
		delete(r.waiting, ftpid)
		th.sec.flushed = true
		th.sec.wait.Grant(0)
	}
	r.envReady = true
	r.envQ.WakeAll(0)
}

// objSeqSnapshot copies the per-object cursors for the fork recorder,
// which continues each object's Seq_obj space where replay stopped.
func (r *Replayer) objSeqSnapshot() map[uint64]uint64 {
	keys := make([]uint64, 0, len(r.objDone))
	for k := range r.objDone { // ftvet:nondet collect-then-sort
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		out[k] = r.objDone[k]
	}
	return out
}

// replayedHistory returns the executed subset of the retained log — every
// environment message plus exactly the tuples whose sections replayed —
// with GlobalSeq renumbered densely in retained (ring) order from the
// retention window's base. With one sequencing domain and a zero base the
// replayed set is a prefix and the renumbering is the identity. With
// per-object domains, sections completed ahead of the frontier would leave
// holes below the Lamport maximum; dropping unreplayed tuples and
// renumbering restores a dense, causally consistent order (ring order
// respects every per-thread and per-object order), so a backup rejoining
// the fork can replay the history under either domain mapping. Epoch
// markers are dropped:
// their digests describe the dead primary's numbering, and the fork's
// cutter starts a fresh boundary sequence over the renumbered space. It
// returns the history and the fork's starting GlobalSeq.
func (r *Replayer) replayedHistory() (logWindow, uint64) {
	out, n := logWindow{base: r.hist.base}, r.baseSeqGlobal
	for i := 0; i < r.hist.msgs.Len(); i++ {
		m := *r.hist.msgs.At(i)
		if m.Kind == msgEpoch {
			continue
		}
		if m.Kind != msgTuple {
			out.append(m)
			continue
		}
		tu := tupleOf(m)
		if tu.ObjSeq >= r.objDone[tu.Key] {
			continue // arrived but never replayed: beyond the stable point
		}
		m.W[wGlobalSeq] = n
		n++
		out.append(m)
	}
	return out, n
}
