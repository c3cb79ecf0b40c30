package replication_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TestCondWaitSectionInventory pins the sections a condition wait and the
// wake-up that ends it record. An untimed wait records its cond_wait only:
// the signal's own section dequeued it and handed it the mutex, so there
// is no race left to record and no re-lock. A timed wait records a
// cond_resolve, carrying the outcome of its timeout-versus-signal race —
// timed out, or signaled in time — and the mutex_lock that re-acquires the
// mutex. A signal or
// broadcast records one tuple when it finds a waiter — the ft_pid it woke,
// or the number — and nothing when it finds none (the timed-out waiter has
// left the queue by then); neither takes a Seq_thread step. The backup
// replays every tuple with no divergence and returns the same outcome; it
// applies the wake-ups itself, so its signaler never opens a section.
func TestCondWaitSectionInventory(t *testing.T) {
	untimed := []pthread.Op{pthread.OpMutexLock, pthread.OpCondWait}
	timed := []pthread.Op{pthread.OpMutexLock, pthread.OpCondTimedwait, pthread.OpCondResolve, pthread.OpMutexLock}
	for _, row := range []struct {
		name      string
		waiters   int
		timeout   time.Duration // < 0: untimed
		broadcast bool
		want      []pthread.Op // each waiter's tuples
		outcome   uint64       // of the cond_resolve section, if any
		woken     int          // waiters the wake-up dequeues
	}{
		{"untimed", 1, -1, false, untimed, 0, 1},
		{"timed out", 1, 200 * time.Microsecond, false, timed, pthread.OutcomeTimedOut, 0},
		{"signaled in time", 1, 5 * time.Millisecond, false, timed, pthread.OutcomeSignaled, 1},
		{"signal, nobody waiting", 0, -1, false, nil, 0, 0},
		{"broadcast, nobody waiting", 0, -1, true, nil, 0, 0},
		{"broadcast, two waiting", 2, -1, true, untimed, 0, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			type side struct {
				got     []bool        // each waiter's wait reported signaled
				seqs    [2]uint64     // the signaler's Seq_thread before and after the call
				took    time.Duration // virtual time the call took
				waiters []int         // ft_pids
			}
			app := func(sd *side) func(*replication.Thread) {
				return func(root *replication.Thread) {
					lib := root.Lib()
					m, c := lib.NewMutex(), lib.NewCond()
					sd.got = make([]bool, row.waiters)
					var threads []*replication.Thread
					for i := range row.waiters {
						threads = append(threads, root.NS().SpawnThread(root, "waiter", func(th *replication.Thread) {
							sd.waiters = append(sd.waiters, th.FTPid())
							m.Lock(th.Task())
							if row.timeout < 0 {
								c.Wait(th.Task(), m)
								sd.got[i] = true
							} else {
								sd.got[i] = c.TimedWait(th.Task(), m, row.timeout)
							}
							m.Unlock(th.Task())
						}))
					}
					threads = append(threads, root.NS().SpawnThread(root, "signaler", func(th *replication.Thread) {
						th.Task().Sleep(time.Millisecond)
						m.Lock(th.Task())
						sd.seqs[0] = th.Seq()
						start := th.Task().Now()
						if row.broadcast {
							c.Broadcast(th.Task())
						} else {
							c.Signal(th.Task())
						}
						sd.seqs[1], sd.took = th.Seq(), th.Task().Now().Sub(start)
						m.Unlock(th.Task())
					}))
					for _, th := range threads {
						root.Join(th)
					}
				}
			}
			var p, s side
			cfg := replication.DefaultConfig()
			d := newDuo(t, 1, cfg, true)
			d.pns.Start("app", nil, app(&p))
			d.sns.Start("app", nil, app(&s))
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
			tuples := d.pns.RecordedTuples()
			var wakes []replication.Tuple
			for _, ftpid := range p.waiters {
				var ops []pthread.Op
				for _, tu := range tuples {
					if tu.FTPid == ftpid {
						ops = append(ops, tu.Op)
					}
				}
				if !slices.Equal(ops, row.want) {
					t.Errorf("waiter %d recorded %v, want %v", ftpid, ops, row.want)
				}
			}
			for _, tu := range tuples {
				if tu.Op == pthread.OpCondResolve && tu.Outcome != row.outcome {
					t.Errorf("cond_resolve recorded outcome %d, want %d", tu.Outcome, row.outcome)
				}
				if tu.Op == pthread.OpCondSignal || tu.Op == pthread.OpCondBroadcast {
					wakes = append(wakes, tu)
				}
			}
			switch {
			case row.woken == 0 && len(wakes) != 0:
				t.Errorf("a wake-up that found no waiter recorded %v", wakes)
			case row.woken > 0 && len(wakes) != 1:
				t.Errorf("recorded wake-ups %v, want one", wakes)
			case row.woken > 0 && row.broadcast && wakes[0].Outcome != uint64(row.woken):
				t.Errorf("broadcast recorded %d woken, want %d", wakes[0].Outcome, row.woken)
			case row.woken > 0 && !row.broadcast && wakes[0].Outcome != uint64(p.waiters[0]):
				t.Errorf("signal recorded ft_pid %d woken, want %d", wakes[0].Outcome, p.waiters[0])
			}
			for i, g := range p.got {
				if want := row.outcome != pthread.OutcomeTimedOut; g != want || s.got[i] != want {
					t.Errorf("wait reported signaled %v on the primary, %v on the backup; want %v", g, s.got[i], want)
				}
			}
			if p.seqs[0] != p.seqs[1] || s.seqs[0] != s.seqs[1] {
				t.Errorf("the wake-up moved the signaler's Seq_thread %v on the primary, %v on the backup", p.seqs, s.seqs)
			}
			// A replayed section costs its thread ReplaySectionCost.
			if s.took >= cfg.ReplaySectionCost {
				t.Errorf("the backup's signaler took %v in the call: it opened a section", s.took)
			}
			if st := d.sns.Stats(); st.Sections != uint64(len(tuples)) || st.Divergences != 0 {
				t.Errorf("backup replayed %d sections with %d divergences, want all %d and none", st.Sections, st.Divergences, len(tuples))
			}
		})
	}
}

// TestCondVarPromotionAtEveryLogBoundary kills the primary of condVarApp
// at every log boundary and promotes the backup there, at one det shard
// and at four. A boundary is a log transfer n landing: every message
// arrives in some transfer, so the transfers cover every message. Each
// boundary is cut at both ends of the interval in which the backup holds
// exactly n transfers: at the instant transfer n lands, and at the last
// instant before transfer n+1 does, when the primary has run as far ahead
// of its backup as it can. A consumer parked in an untimed wait at the
// promotion has no section left to replay: it waits for a signal the
// promoted side records live. Some cuts find a woken waiter queued on the
// backup's held mutex: a replayed wake-up handed it the mutex, and the
// holder's unlock grants it once the waiters queued ahead of it had theirs.
//
// Further cuts fall 1 ns after each effective wake-up's tuple-emit, before
// the flush that carries it, in a run beside a ticker thread whose
// sections keep the backup replaying: its producer runs past a signal
// while promotion is still replaying, skips it (the replayer applies
// wake-ups), and the tuple that would have woken the consumer dies with
// the primary. The queue holds one item, so the producer then waits for
// room and every thread would wait forever, but for the wake-up promotion
// gives every waiter left.
//
// At every cut the promoted side consumes what the dead primary consumed
// under the mutex_lock tuples it replayed and the hand-offs of the
// wake-ups it replayed, in the same order, then every
// remaining item exactly once; it counts no divergence, every thread
// returns, and once the run is quiet the one process left is the fork
// recorder's spill server, which stops with its kernel.
func TestCondVarPromotionAtEveryLogBoundary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := replication.DefaultConfig()
		cfg.DetShards = shards
		// Clean runs time the transfers and the wake-ups' emits.
		var landed []sim.Time
		{
			var pOrder, sOrder []consumption
			var pDone, sDone bool
			d := newDuo(t, 5, cfg, true)
			d.log.OnDelivered(func() { landed = append(landed, d.sim.Now()) })
			d.pns.Start("app", nil, condVarApp(&pOrder, &pDone, nil))
			d.sns.Start("app", nil, condVarApp(&sOrder, &sDone, nil))
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if len(landed) < 10 {
			t.Fatalf("%d shards: only %d log transfers", shards, len(landed))
		}
		cuts := 0   // cuts that lost consumptions the primary had made
		handed := 0 // cuts that found a woken waiter queued on the held mutex
		for n := 1; n <= len(landed); n++ {
			for _, late := range []bool{false, true} {
				if late && (n == len(landed) || landed[n]-1 <= landed[n-1]) {
					continue
				}
				name := fmt.Sprintf("%d shards, transfer %d landing", shards, n)
				arm := func(d *duo, promote func()) {
					seen := 0
					d.log.OnDelivered(func() {
						if seen++; seen == n {
							promote()
						}
					})
				}
				if late {
					name = fmt.Sprintf("%d shards, before transfer %d lands", shards, n+1)
					arm = func(d *duo, promote func()) { d.sim.ScheduleAt(landed[n]-1, promote) }
				}
				c := promoteAt(t, name, cfg, 5, false, arm)
				if c.lost {
					cuts++
				}
				if c.handed > 0 {
					handed++
				}
			}
		}
		lostWakes := 0 // cuts at which an effective wake-up's tuple died unflushed
		emits := wakeEmits(t, cfg, tickerSeed)
		for _, e := range emits {
			name := fmt.Sprintf("%d shards, 1 ns after the wake-up at log index %d is emitted", shards, e.msg)
			c := promoteAt(t, name, cfg, tickerSeed, true, func(d *duo, promote func()) { d.sim.ScheduleAt(e.at+1, promote) })
			if c.received <= e.msg {
				lostWakes++
			}
			if c.handed > 0 {
				handed++
			}
		}
		t.Logf("%d shards: %d transfers, %d cuts; %d wake-ups, %d lost; %d found a woken waiter queued", shards, len(landed), cuts, len(emits), lostWakes, handed)
		if cuts == 0 || lostWakes == 0 || handed == 0 {
			t.Errorf("%d shards: %d cuts lost a consumption the primary had made, %d an effective wake-up, %d found a woken waiter queued on the held mutex; want some of each",
				shards, cuts, lostWakes, handed)
		}
	}
}

// tickerSeed seeds the runs beside the ticker thread: at it, one det shard
// and four alike, a run without promotion's wake-up strands its threads.
const tickerSeed = 7

// wakeEmit is the tuple-emit of an effective wake-up: when, and at which
// log index (the environment is message 0).
type wakeEmit struct {
	at  sim.Time
	msg uint64
}

// wakeEmits runs condVarApp beside the ticker thread once, cleanly, and
// returns the emits of its effective wake-ups.
func wakeEmits(t *testing.T, cfg replication.Config, seed int64) []wakeEmit {
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	d := newDuo(t, seed, cfg, true)
	tr := obs.New(d.sim, obs.Config{Trace: true})
	d.pns.Instrument(tr.Scope("primary"), tr.Registry())
	var ticker int
	d.pns.Start("app", nil, withTicker(condVarApp(&pOrder, &pDone, nil), &ticker))
	d.sns.Start("app", nil, withTicker(condVarApp(&sOrder, &sDone, nil), &ticker))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	msg := make(map[int64]uint64) // effective wake-ups' log indexes, by Seq_global
	for i, tu := range d.pns.RecordedTuples() {
		if (tu.Op == pthread.OpCondSignal || tu.Op == pthread.OpCondBroadcast) && tu.Outcome != 0 {
			msg[int64(tu.GlobalSeq)] = uint64(i) + 1
		}
	}
	var out []wakeEmit
	for _, e := range tr.Events() {
		if i, ok := msg[e.Seq]; ok && e.Kind == obs.TupleEmit {
			out = append(out, wakeEmit{e.At, i})
		}
	}
	if len(out) < 10 {
		t.Fatalf("only %d effective wake-ups", len(out))
	}
	return out
}

// withTicker runs app beside a ticker thread, whose ft_pid it stores in
// ftpid, that takes a mutex of its own sixty times, 30 µs apart.
func withTicker(app func(*replication.Thread), ftpid *int) func(*replication.Thread) {
	return func(root *replication.Thread) {
		ticker := root.NS().SpawnThread(root, "ticker", func(th *replication.Thread) {
			*ftpid = th.FTPid()
			m := th.Lib().NewMutex()
			for range 60 {
				m.Lock(th.Task())
				m.Unlock(th.Task())
				th.Task().Compute(30 * time.Microsecond)
			}
		})
		app(root)
		root.Join(ticker)
	}
}

// cut is what one cut of TestCondVarPromotionAtEveryLogBoundary found: the
// primary had consumed beyond what its backup replayed (lost), the log
// messages the backup received, and the woken waiters promotion found
// queued on the backup's held mutex.
type cut struct {
	lost     bool
	received uint64
	handed   int
}

// promoteAt runs one cut of TestCondVarPromotionAtEveryLogBoundary: arm
// schedules promote, which kills the primary and promotes the backup.
func promoteAt(t *testing.T, name string, cfg replication.Config, seed int64, ticker bool, arm func(d *duo, promote func())) cut {
	t.Helper()
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	var handed func() int
	var c cut
	d := newDuo(t, seed, cfg, true)
	arm(d, func() {
		d.pk.Panic("injected failure", nil)
		if handed != nil { // the backup's app has started
			c.handed = handed()
		}
		d.sns.Replayer().Promote()
	})
	papp, sapp := condVarApp(&pOrder, &pDone, nil), condVarApp(&sOrder, &sDone, &handed)
	tickerPid := -1
	if ticker {
		papp, sapp = withTicker(papp, &tickerPid), withTicker(sapp, &tickerPid)
	}
	d.pns.Start("app", nil, papp)
	d.sns.Start("app", nil, sapp)
	if err := d.sim.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The replayed tuples are a prefix of the primary's log; the queue's
	// mutex_lock tuples, and the wake-ups that handed the mutex to the
	// waiters they woke, ordered the first held acquisitions.
	held := 0
	for _, tu := range d.pns.RecordedTuples()[:d.sns.ReplayStats().Sections] {
		switch {
		case tu.Op == pthread.OpMutexLock && tu.FTPid != tickerPid:
			held++
		case tu.Op == pthread.OpCondSignal && tu.Outcome != 0:
			held++
		case tu.Op == pthread.OpCondBroadcast:
			held += int(tu.Outcome)
		}
	}
	k := 0
	for k < len(pOrder) && pOrder[k].acq <= held {
		k++
	}
	if len(sOrder) < k || !slices.Equal(sOrder[:k], pOrder[:k]) {
		t.Fatalf("%s: promoted side consumed %v, want the primary's replayed %v first", name, sOrder, pOrder[:k])
	}
	items := make([]int, 0, len(sOrder))
	for _, c := range sOrder {
		items = append(items, c.item)
	}
	slices.Sort(items)
	for i, it := range items {
		if it != i || len(items) != 20 {
			t.Fatalf("%s: promoted side consumed items %v, want 0..19 once each", name, items)
		}
	}
	if div := d.sns.ReplayStats().Divergences; div != 0 {
		t.Errorf("%s: %d divergences", name, div)
	}
	if !sDone || d.sns.Role() != replication.RoleLive {
		t.Errorf("%s: promoted side returned %v, role %v", name, sDone, d.sns.Role())
	}
	live := d.sim.Live()
	d.sk.Panic("end of run", nil)
	if err := d.sim.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if live != 1 || d.sim.Live() != 0 {
		t.Errorf("%s: %d processes left once the run is quiet, %d once the survivor stops; want 1 and 0", name, live, d.sim.Live())
	}
	c.lost, c.received = k < len(pOrder), d.sns.Processed()
	return c
}

// TestCondVarRejoinReplaysPromotionWake promotes the backup of condVarApp
// beside the ticker thread 1 ns after each effective wake-up's tuple-emit,
// lets the survivor finish, then rejoins a fresh backup on the dead
// primary's partition, at one det shard and at four. The wake-up promotion
// gives every waiter left is in no thread's program, so the fork records
// it as a broadcast naming no thread; the rejoined backup, replaying the
// fork's history from the start, applies it to the same waiters. It
// consumes what the survivor consumed, in the same order, reaches the
// fork's Seq_global and counts no divergence.
func TestCondVarRejoinReplaysPromotionWake(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := replication.DefaultConfig()
		cfg.DetShards = shards
		woke := 0 // cuts at which promotion woke a waiter
		emits := wakeEmits(t, cfg, tickerSeed)
		for _, e := range emits {
			name := fmt.Sprintf("%d shards, promoted 1 ns after the wake-up at log index %d is emitted", shards, e.msg)
			var pOrder, sOrder, rOrder []consumption
			var pDone, sDone, rDone bool
			var ticker int
			d := newDuo(t, tickerSeed, cfg, true)
			d.sim.ScheduleAt(e.at+1, func() {
				d.pk.Panic("injected failure", nil)
				d.sns.Replayer().Promote()
			})
			d.pns.Start("app", nil, withTicker(condVarApp(&pOrder, &pDone, nil), &ticker))
			d.sns.Start("app", nil, withTicker(condVarApp(&sOrder, &sDone, nil), &ticker))
			if err := d.sim.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, tu := range d.sns.RecordedTuples() {
				if tu.Op == pthread.OpCondBroadcast && tu.FTPid == 0 {
					woke++
				}
			}
			k, err := kernel.Boot(d.pk.Partition(), kernel.Config{Name: "rejoiner", Params: d.pk.Params()})
			if err != nil {
				t.Fatal(err)
			}
			rlog, racks := d.fabric.NewRing("ftns.log.g1", 0, cfg.LogRingBytes), d.fabric.NewRing("ftns.acks.g1", 1, 64<<10)
			rns := replication.NewSecondary("ftns", k, cfg, rlog, racks)
			d.sns.AddReplica(rlog, racks, nil)
			rns.Start("app", nil, withTicker(condVarApp(&rOrder, &rDone, nil), &ticker))
			if err := d.sim.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sDone || !rDone || !slices.Equal(rOrder, sOrder) {
				t.Fatalf("%s: the rejoined backup consumed %v (returned %v), the survivor %v (returned %v)", name, rOrder, rDone, sOrder, sDone)
			}
			if rns.ReplayHead() != d.sns.SeqGlobal() || rns.Stats().Divergences != 0 {
				t.Errorf("%s: the rejoined backup replayed to %d of the fork's %d with %d divergences",
					name, rns.ReplayHead(), d.sns.SeqGlobal(), rns.Stats().Divergences)
			}
			d.sim.Shutdown()
		}
		t.Logf("%d shards: promotion woke a waiter at %d of %d cuts", shards, woke, len(emits))
		if woke == 0 {
			t.Errorf("%d shards: promotion never woke a waiter", shards)
		}
	}
}
