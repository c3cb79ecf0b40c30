package replication_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// The record/replay engine against a slice model, in the manner of shm's
// TestOutboxMatchesReferenceModel: seeded programs of det sections on a few
// sequencing keys, with an output registered after some of them, run on a
// primary's recorder and on N−1 backups' replayers over shm rings whose
// transfers are delayed (log and acks) and duplicated (acks), while an epoch
// cutter cuts and the backups verify. At a random log message the model
// kills a backup, or kills the primary — dropping its in-flight log
// transfers, as a coherency fault does — and promotes the backup that
// received the most; a fresh backup then rejoins the fork from its latest
// epoch checkpoint. The model keeps, as plain slices, every message
// published on each log ring and the sections each replica ran, and checks
// the four properties listed on TestReplicationMatchesReferenceModel.

type modelStep struct {
	key    uint64
	output bool
}

type modelOutput struct {
	ns       *replication.Namespace
	cause    uint64 // log messages recorded when the output was registered
	released bool
}

// modelSide is one replica.
type modelSide struct {
	k        *kernel.Kernel
	ns       *replication.Namespace
	log      *shm.Ring        // the ring it replays from; nil on the boot primary
	acks     *shm.Ring        // and the one it acknowledges on
	base     uint64           // the log index that ring's stream starts at
	pub      []shm.Message    // every message published on that ring
	order    map[uint64][]int // each key's ft_pids, in the order it ran their sections
	from     []int            // per thread: the step a checkpoint-seeded replica resumes at
	finished int              // threads that ran their whole program
	verified uint64           // the last epoch it verified
	rejected int              // epochs whose planted digest it rejected
	frontier bool             // a rejoined backup's replay matched the attach frontier
}

// modelCut is an epoch boundary as the cutter took it: the checkpoint a
// backup rejoining the recording side is seeded from.
type modelCut struct {
	epoch, seq, sent uint64
	threads          []replication.SeqCursor
	objs             []replication.ObjCursor
	next             int
	env              map[string]string
}

type modelWorld struct {
	rng      *rand.Rand
	sim      *sim.Simulation
	mach     *hw.Machine
	fabric   *shm.Fabric
	cfg      replication.Config
	sides    []*modelSide                            // [0] the boot primary
	links    map[*replication.Namespace][]*modelSide // a recording side's links, in link order
	progs    [][]modelStep                           // one per thread, the same on every replica
	outs     []*modelOutput                          // in registration order
	epoch    uint64                                  // the last epoch cut
	cutSent  map[uint64]uint64                       // each epoch's log index
	corrupt  map[uint64]bool                         // epochs cut with a planted wrong digest
	cut      modelCut                                // the last one
	promoted *modelSide
	acked    uint64 // log messages delivered to it when promoted
	// The fork's retained history as it went live, and its log index.
	forkHistory []replication.Tuple
	forkBase    uint64
	// midCatchup makes every run kill the primary, and the fork cut an
	// epoch in the instant its rejoining backup attaches: with no other
	// backup the epoch quorum is vacuous, so the cut is verified while the
	// backup's catch-up has not read past it.
	midCatchup bool
	failed     []string // sim callbacks must not t.Fatal
}

func (w *modelWorld) fail(format string, args ...any) {
	w.failed = append(w.failed, fmt.Sprintf(format, args...))
}

// kthOf is the commit rule (§3.5) over one mark per link: the k-th largest
// among the live caught-up links, k the commit quorum (all of them when it
// is 0 or more than remain), and vacuous — the given value — when none is.
func (w *modelWorld) kthOf(ns *replication.Namespace, mark func(replication.ReplicaWatermark, *modelSide) uint64, vacuous uint64) uint64 {
	var marks []uint64
	for _, wm := range ns.Watermarks() {
		if !wm.Dead && !wm.Syncing {
			marks = append(marks, mark(wm, w.links[ns][wm.Index]))
		}
	}
	if len(marks) == 0 {
		return vacuous
	}
	slices.Sort(marks)
	slices.Reverse(marks)
	k := w.cfg.CommitQuorum
	if k <= 0 || k > len(marks) {
		k = len(marks)
	}
	return marks[k-1]
}

// covered is the rule over the recorder's receipt watermarks, or over what
// each backup really received (its ring's deliveries).
func (w *modelWorld) covered(ns *replication.Namespace, received bool) uint64 {
	_, sent := ns.LogWatermark()
	return w.kthOf(ns, func(wm replication.ReplicaWatermark, s *modelSide) uint64 {
		if received {
			return s.base + uint64(s.log.Delivered())
		}
		return wm.Watermark
	}, sent)
}

// checkOutputs is property 2 at a section boundary of a recording side:
// no output the commit rule covers is held. (One it released stays out
// when a backup that caught up joins the rule and lowers it.)
func (w *modelWorld) checkOutputs(ns *replication.Namespace) {
	c := w.covered(ns, false)
	for i, o := range w.outs {
		if o.ns == ns && !o.released && o.cause <= c {
			w.fail("output %d (cause %d) held with the commit rule at %d", i, o.cause, c)
		}
	}
}

// release is an output's OnStable callback: the rule must cover it, in the
// recorder's watermarks and in what the backups really received, and the
// outputs registered before it on its side must be out already.
func (w *modelWorld) release(o *modelOutput) {
	o.released = true
	if c, r := w.covered(o.ns, false), w.covered(o.ns, true); o.cause > c || o.cause > r {
		w.fail("output with cause %d released at watermark %d, received %d", o.cause, c, r)
	}
	for _, p := range w.outs[:slices.Index(w.outs, o)] {
		if p.ns == o.ns && !p.released {
			w.fail("output with cause %d released before one with cause %d", o.cause, p.cause)
		}
	}
}

func (w *modelWorld) worker(s *modelSide, i int) func(*replication.Thread) {
	return func(th *replication.Thread) {
		ns, t := th.NS(), th.Task()
		for _, st := range w.progs[i][s.from[i]:] {
			if ns.Recording() {
				w.checkOutputs(ns)
			}
			t.Compute(time.Duration(t.Kernel().Domain().Rand().IntN(40)) * time.Microsecond)
			ns.Enter(t, pthread.OpSyscall, st.key)
			s.order[st.key] = append(s.order[st.key], th.FTPid())
			ns.Exit(t, 0)
			if st.output && ns.Recording() {
				_, sent := ns.LogWatermark()
				o := &modelOutput{ns: ns, cause: sent}
				w.outs = append(w.outs, o)
				ns.OnStable(func() { w.release(o) })
			}
		}
		s.finished++
	}
}

// app runs the program: the root thread spawns the others — ft_pids 2, 3, …
// — and runs thread 0's steps.
func (w *modelWorld) app(s *modelSide) func(*replication.Thread) {
	return func(root *replication.Thread) {
		var ths []*replication.Thread
		for i := 1; i < len(w.progs); i++ {
			ths = append(ths, root.NS().SpawnThread(root, "w", w.worker(s, i)))
		}
		w.worker(s, 0)(root)
		for _, th := range ths {
			root.Join(th)
		}
	}
}

// cutter cuts an epoch every few hundred microseconds in which sections ran,
// until the recording side's program is done.
func (w *modelWorld) cutter(s *modelSide) func(*kernel.Task) {
	return func(t *kernel.Task) {
		var last uint64
		for s.finished < len(w.progs) {
			t.Sleep(time.Duration(200+w.rng.Intn(300)) * time.Microsecond)
			if s.ns.SeqGlobal() != last {
				last = w.cutEpoch(t, s, true)
			}
		}
	}
}

// cutEpoch quiesces s and cuts an epoch there, its digest planted wrong at
// random if mayCorrupt; it returns the cut's Seq_global.
func (w *modelWorld) cutEpoch(t *kernel.Task, s *modelSide, mayCorrupt bool) uint64 {
	release := s.ns.Quiesce(t)
	defer release()
	seq, sent := s.ns.LogWatermark()
	_, threads := s.ns.Cursors(nil)
	w.epoch++
	w.cutSent[w.epoch] = sent
	w.cut = modelCut{w.epoch, seq, sent, threads, s.ns.ObjCursors(nil), s.ns.NextFTPid(), s.ns.Env()}
	digest := stateDigest(s.ns)
	if mayCorrupt && w.rng.Intn(6) == 0 { // no backup may verify it, nor truncate at it
		digest, w.corrupt[w.epoch] = ^digest, true
	}
	s.ns.EmitEpoch(t, replication.EpochMark{Epoch: w.epoch, SeqGlobal: seq, Sent: sent, Digest: digest}, 64)
	return seq
}

// record makes s a recording side: its cutter runs, and property 4 holds
// it to truncating only at an epoch its commit quorum verified.
func (w *modelWorld) record(s *modelSide) {
	s.ns.OnEpochQuorum(func(epoch uint64) {
		if q := w.kthOf(s.ns, func(_ replication.ReplicaWatermark, l *modelSide) uint64 { return l.verified }, w.epoch); q < epoch {
			w.fail("truncated at epoch %d, the commit quorum has verified %d", epoch, q)
		}
		if base := s.ns.RecordWindowBase(); base != w.cutSent[epoch] {
			w.fail("history starts at %d after truncating at epoch %d (log index %d)", base, epoch, w.cutSent[epoch])
		}
	})
	s.k.Spawn("epoch-cutter", w.cutter(s))
}

// boot starts a replica's kernel on the next two NUMA nodes.
func (w *modelWorld) boot() *modelSide {
	i := len(w.sides)
	part, err := w.mach.NewPartition(fmt.Sprintf("r%d", i), 2*i, 2*i+1)
	if err != nil {
		panic(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	k, err := kernel.Boot(part, kernel.Config{Name: fmt.Sprintf("r%d", i), Params: kp})
	if err != nil {
		panic(err)
	}
	s := &modelSide{k: k, order: map[uint64][]int{}, from: make([]int, len(w.progs))}
	w.sides = append(w.sides, s)
	return s
}

// backup boots a backup of src, replaying from a fresh log ring whose
// transfers are delayed, acknowledging on one whose transfers are delayed
// and duplicated, and verifying every epoch it replays to.
func (w *modelWorld) backup(src *modelSide) *modelSide {
	s := w.boot()
	i := len(w.sides) - 1
	s.log = w.fabric.NewRing(fmt.Sprintf("log%d", i), slices.Index(w.sides, src), w.cfg.LogRingBytes)
	s.acks = w.fabric.NewRing(fmt.Sprintf("acks%d", i), i, 64<<10)
	s.log.SetChaosHook(func(msgs []shm.Message) shm.ChaosVerdict {
		s.pub = append(s.pub, msgs...)
		return shm.ChaosVerdict{Delay: time.Duration(w.rng.Intn(3)*w.rng.Intn(60)) * time.Microsecond}
	})
	s.acks.SetChaosHook(func([]shm.Message) shm.ChaosVerdict {
		return shm.ChaosVerdict{Dup: w.rng.Intn(3) / 2, Delay: time.Duration(w.rng.Intn(2)*w.rng.Intn(80)) * time.Microsecond}
	})
	s.ns = replication.NewSecondary("ftns", s.k, w.cfg, s.log, s.acks)
	s.ns.OnEpoch(func(mark replication.EpochMark) bool {
		if stateDigest(s.ns) != mark.Digest {
			if !w.corrupt[mark.Epoch] {
				w.fail("replica %d: epoch %d digest mismatch", i, mark.Epoch)
			}
			s.rejected++
			return false
		}
		s.verified = mark.Epoch
		return true
	})
	return s
}

// act kills a random backup, or kills the primary and promotes the backup
// that received the most — the election's pick, the one §3.5 promises holds
// every tuple a released output depends on — which then records on, and a
// fresh backup rejoins it from its latest epoch checkpoint.
func (w *modelWorld) act() {
	backups := w.links[w.sides[0].ns]
	if w.rng.Intn(2) == 0 && !w.midCatchup {
		j := w.rng.Intn(len(backups))
		backups[j].k.Panic("model: backup killed", nil)
		w.fabric.DropInflight(slices.Index(w.sides, backups[j])) // its acks in flight
		w.sim.Schedule(time.Duration(w.rng.Intn(500))*time.Microsecond, func() { w.sides[0].ns.DropReplica(j) })
		return
	}
	w.sides[0].k.Panic("model: primary killed", nil)
	w.fabric.DropInflight(0) // its log transfers in flight
	p := backups[0]
	for _, b := range backups {
		if b.log.Delivered() > p.log.Delivered() {
			p = b
		}
	}
	w.promoted, w.acked = p, uint64(p.log.Delivered())
	for _, o := range w.outs {
		if o.released && o.cause > w.acked {
			w.fail("output with cause %d released, but the promoted backup received %d", o.cause, w.acked)
		}
	}
	p.ns.Replayer().Promote()
	p.k.Spawn("rejoin", func(t *kernel.Task) {
		for !p.ns.Recording() {
			t.Sleep(20 * time.Microsecond)
		}
		w.forkBase, w.forkHistory = p.ns.RecordWindowBase(), p.ns.RecordedTuples()
		p.ns.SeedEpochs(w.epoch)
		forked := w.epoch
		w.record(p)
		for w.cut.epoch == forked {
			if p.finished == len(w.progs) {
				return
			}
			t.Sleep(100 * time.Microsecond)
		}
		w.rejoin(p)
		if w.midCatchup {
			w.cutEpoch(t, p, false)
		}
	})
}

// rejoin seeds a fresh backup of s from the last epoch cut — the retained
// history starts at its marker, the fork having truncated there with no
// backup to wait for — and arms the check that its replay reproduces s's
// cursors at the attach frontier. Nothing here yields: the cut, the seed
// and the attach are one instant, as in the deployment's rejoin.
func (w *modelWorld) rejoin(s *modelSide) {
	c := w.cut
	r := w.backup(s)
	r.base = c.sent
	r.ns.SeedCheckpoint(c.epoch, c.seq, c.sent, c.objs, c.env)
	r.ns.ResumeFrom(c.threads, c.next)
	for _, th := range c.threads {
		r.from[th.FTPid-1] = int(th.Seq)
	}
	r.from[0] -= len(c.threads) - 1 // the root's first sections spawned the others
	w.links[s.ns] = append(w.links[s.ns], r)
	s.ns.AddReplica(r.log, r.acks, nil)
	r.ns.Start("app", nil, w.app(r))
	seq, _ := s.ns.Cursors(nil)
	digest := stateDigest(s.ns)
	r.ns.OnReplayHead(seq, func() {
		if r.frontier = stateDigest(r.ns) == digest; !r.frontier {
			w.fail("the rejoined backup's cursors at the attach frontier differ from the fork's")
		}
	})
}

func runReplicationModel(t *testing.T, seed int64, replicas, shards int, midCatchup bool) *modelWorld {
	s := sim.New(seed)
	t.Cleanup(s.Shutdown)
	w := &modelWorld{rng: rand.New(rand.NewSource(seed)), sim: s, mach: hw.New(s, hw.Opteron6376x4()),
		fabric: shm.NewFabric(s, time.Microsecond), cfg: replication.DefaultConfig(), midCatchup: midCatchup,
		links: map[*replication.Namespace][]*modelSide{}, cutSent: map[uint64]uint64{}, corrupt: map[uint64]bool{}}
	w.cfg.DetShards = shards
	if replicas > 2 {
		w.cfg.CommitQuorum = w.rng.Intn(replicas - 1) // every backup, or fewer
	}
	for i := 0; i < 2+w.rng.Intn(2); i++ {
		prog := make([]modelStep, 15+w.rng.Intn(20))
		for k := range prog {
			prog[k] = modelStep{key: uint64(1 + w.rng.Intn(5)), output: w.rng.Intn(4) == 0}
		}
		w.progs = append(w.progs, prog)
	}
	prim := w.boot()
	var logs, acks []*shm.Ring
	var backups []*modelSide
	for range replicas - 1 {
		b := w.backup(prim)
		backups, logs, acks = append(backups, b), append(logs, b.log), append(acks, b.acks)
	}
	prim.ns = replication.NewPrimary("ftns", prim.k, w.cfg, logs, acks)
	w.links[prim.ns] = backups
	for _, s := range w.sides {
		s.ns.Start("app", nil, w.app(s))
	}
	w.record(prim)
	at := int64(1 + w.rng.Intn(80))
	logs[0].OnDelivered(func() {
		if at > 0 && logs[0].Delivered() >= at {
			at = 0
			w.act()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// tuples decodes the det-section tuples of a message stream.
func tuples(msgs []shm.Message) []replication.Tuple {
	var out []replication.Tuple
	for _, m := range msgs {
		if tu, ok := replication.TupleOf(m); ok {
			out = append(out, tu)
		}
	}
	return out
}

// checkRecordOrder is property 1 over a recorded history from its first
// tuple: each key's Seq_obj and each thread's Seq_thread count up from zero,
// Seq_global rises, and at one shard it is the tuple's index.
func (w *modelWorld) checkRecordOrder(label string, tus []replication.Tuple, dense bool) {
	objSeq, thSeq := map[uint64]uint64{}, map[int]uint64{}
	for i, tu := range tus {
		if tu.ObjSeq != objSeq[tu.Key] || tu.ThreadSeq != thSeq[tu.FTPid] {
			w.fail("%s: tuple %d %v: want Seq_obj %d, Seq_thread %d", label, i, tu, objSeq[tu.Key], thSeq[tu.FTPid])
			return
		}
		if i > 0 && tu.GlobalSeq <= tus[i-1].GlobalSeq || dense && tu.GlobalSeq != uint64(i) {
			w.fail("%s: tuple %d %v out of Seq_global order after %v", label, i, tu, tus[i-1])
			return
		}
		objSeq[tu.Key]++
		thSeq[tu.FTPid]++
	}
}

// keyOrder is each program key's ft_pids in history order.
func keyOrder(tus []replication.Tuple) map[uint64][]int {
	out := map[uint64][]int{}
	for _, tu := range tus {
		if tu.Op == pthread.OpSyscall {
			out[tu.Key] = append(out[tu.Key], tu.FTPid)
		}
	}
	return out
}

func isPrefix(short, long map[uint64][]int) bool {
	for k, s := range short {
		if len(s) > len(long[k]) || !slices.Equal(s, long[k][:len(s)]) {
			return false
		}
	}
	return true
}

func (w *modelWorld) check() {
	prim, backups := w.sides[0], w.links[w.sides[0].ns]
	// The primary's log: the longest stream published on any of its links
	// (one broadcast, cut short where a link died), whole if one lived on.
	var stream []shm.Message
	for _, b := range backups {
		if len(b.pub) > len(stream) {
			stream = b.pub
		}
	}
	log := tuples(stream)
	w.checkRecordOrder("primary", log, w.cfg.DetShards == 1)
	whole := w.promoted == nil && slices.ContainsFunc(prim.ns.Watermarks(), func(m replication.ReplicaWatermark) bool { return !m.Dead })
	if order := keyOrder(log); !isPrefix(order, prim.order) || whole && !isPrefix(prim.order, order) {
		w.fail("the primary's sections per key %v, its log's %v", prim.order, order)
	}
	for _, b := range backups {
		if b != w.promoted && !isPrefix(b.order, keyOrder(log)) {
			w.fail("a backup replayed %v, not a prefix of the log's order", b.order)
		}
		if base := b.ns.ReplayWindowBase(); b != w.promoted && base > w.cutSent[b.verified] {
			w.fail("a backup truncated to %d, past its last verified epoch %d (log index %d)", base, b.verified, w.cutSent[b.verified])
		}
	}
	for i, s := range w.sides[1:] {
		if d := s.ns.Stats().Divergences; d != uint64(s.rejected) {
			w.fail("replica %d: %d divergences, %d rejected epochs", i+1, d, s.rejected)
		}
	}
	p := w.promoted
	if p == nil {
		for _, o := range w.outs {
			if !o.released {
				w.fail("output with cause %d never released on a live primary", o.cause)
			}
		}
		if prim.finished != len(w.progs) {
			w.fail("the primary finished %d of %d threads", prim.finished, len(w.progs))
		}
		return
	}
	// Property 3: the fork's history, from its window base, is the prefix
	// the promoted backup received, epoch markers dropped, and then what it
	// records on, in one order.
	received := tuples(p.pub[w.forkBase:w.acked])
	if len(w.forkHistory) < len(received) {
		w.fail("the fork holds %d tuples, fewer than the %d its backup received", len(w.forkHistory), len(received))
		return
	}
	for i, tu := range received {
		if got := w.forkHistory[i]; got.FTPid != tu.FTPid || got.ThreadSeq != tu.ThreadSeq || got.Key != tu.Key || got.ObjSeq != tu.ObjSeq || got.Op != tu.Op {
			w.fail("fork tuple %d is %v, the received one %v", i, got, tu)
			return
		}
	}
	w.checkRecordOrder("fork", append(tuples(p.pub[:w.forkBase]), w.forkHistory...), false)
	if p.finished != len(w.progs) {
		w.fail("the promoted replica finished %d of %d threads", p.finished, len(w.progs))
	}
	for _, r := range w.links[p.ns] {
		if !r.frontier || r.finished != len(w.progs) {
			w.fail("the rejoined backup: frontier verified %v, %d of %d threads finished", r.frontier, r.finished, len(w.progs))
		}
	}
}

// TestReplicationMatchesReferenceModel checks, at N ∈ {2, 3} and one or
// four det shards, for seeded programs killed or promoted at a random log
// message:
//  1. record order: each key's Seq_obj and each thread's Seq_thread count
//     up, Seq_global rises (and is the tuple's index at one shard), and the
//     log orders each key's sections as the primary ran them; every backup
//     replays a prefix of that order (§3.3);
//  2. output commit: an output is released iff the k-th-largest receipt
//     watermark covers its cause, never before its backups received it,
//     in registration order — and a live primary releases them all (§3.5);
//  3. promotion: the most caught-up backup holds every released output's
//     cause, its fork's history is the prefix it received followed by what
//     it records on, in one order, and a backup rejoining the fork from its
//     last epoch cut reproduces the fork's cursors at the attach frontier
//     (§3.7);
//  4. truncation: a recording side truncates only at an epoch its commit
//     quorum verified, and a backup only at one it verified itself.
//
// The cut-mid-catchup cases (N = 2) cut an epoch on the fork in the instant
// a backup rejoins it: the vacuous quorum verifies the cut before the
// catch-up has read past it, and the rejoined backup must still receive a
// gapless stream — the fork holds the truncation back until it has.
func TestReplicationMatchesReferenceModel(t *testing.T) {
	for _, replicas := range []int{2, 3} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("n%d-shards%d", replicas, shards), func(t *testing.T) {
				modelCases(t, replicas, shards, false)
			})
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("n2-shards%d-cut-mid-catchup", shards), func(t *testing.T) {
			modelCases(t, 2, shards, true)
		})
	}
}

func modelCases(t *testing.T, replicas, shards int, midCatchup bool) {
	kills, promotions, rejoins := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		w := runReplicationModel(t, seed, replicas, shards, midCatchup)
		w.check()
		if len(w.failed) > 0 {
			t.Fatalf("seed %d (quorum %d, %d threads): %d failures, the first: %s",
				seed, w.cfg.CommitQuorum, len(w.progs), len(w.failed), w.failed[0])
		}
		switch {
		case w.promoted == nil:
			kills++
		case len(w.links[w.promoted.ns]) > 0:
			rejoins++
			fallthrough
		default:
			promotions++
		}
	}
	if kills == 0 && !midCatchup || promotions == 0 || rejoins == 0 {
		t.Errorf("%d backup kills, %d promotions, %d rejoins; want each", kills, promotions, rejoins)
	}
}
