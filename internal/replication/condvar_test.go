package replication_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TestCondWaitSectionInventory pins the sections a condition wait and the
// wake-up that ends it record. A wait records its cond_wait or
// cond_timedwait only: whatever dequeued it handed it the mutex in its own
// section, so there is no re-lock. A timed wait that times out records a
// cond_timeout as well, carrying its own ft_pid: the timeout is the
// wake-up that dequeued it. A signal or broadcast records one tuple when it
// finds a waiter — the ft_pid it woke, or the number — and nothing when it
// finds none (the timed-out waiter has left the queue by then); no wake-up
// takes a Seq_thread step. The backup replays every tuple with no
// divergence and returns the same outcome; it applies the wake-ups itself,
// so its signaler never opens a section.
func TestCondWaitSectionInventory(t *testing.T) {
	untimed := []pthread.Op{pthread.OpMutexLock, pthread.OpCondWait}
	timed := []pthread.Op{pthread.OpMutexLock, pthread.OpCondTimedwait}
	timedOut := []pthread.Op{pthread.OpMutexLock, pthread.OpCondTimedwait, pthread.OpCondTimeout}
	for _, row := range []struct {
		name      string
		waiters   int
		timeout   time.Duration // < 0: untimed
		broadcast bool
		want      []pthread.Op // each waiter's tuples
		timedOut  bool         // the waiters' timeouts dequeued them
		woken     int          // waiters the wake-up dequeues
	}{
		{"untimed", 1, -1, false, untimed, false, 1},
		{"timed out", 1, 200 * time.Microsecond, false, timedOut, true, 0},
		{"signaled in time", 1, 5 * time.Millisecond, false, timed, false, 1},
		{"signal, nobody waiting", 0, -1, false, nil, false, 0},
		{"broadcast, nobody waiting", 0, -1, true, nil, false, 0},
		{"broadcast, two waiting", 2, -1, true, untimed, false, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			type side struct {
				got      []bool        // each waiter's wait reported signaled
				seqs     [2]uint64     // the signaler's Seq_thread before and after the call
				took     time.Duration // virtual time the call took
				waiters  []int         // ft_pids
				waitSeqs []uint64      // each waiter's Seq_thread once its wait returned
			}
			app := func(sd *side) func(*replication.Thread) {
				return func(root *replication.Thread) {
					lib := root.Lib()
					m, c := lib.NewMutex(), lib.NewCond()
					sd.got, sd.waitSeqs = make([]bool, row.waiters), make([]uint64, row.waiters)
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
							sd.waitSeqs[i] = th.Seq()
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
			for i, ftpid := range p.waiters {
				var ops []pthread.Op
				for _, tu := range tuples {
					if tu.FTPid != ftpid {
						continue
					}
					ops = append(ops, tu.Op)
					if tu.Op == pthread.OpCondTimeout && tu.Outcome != uint64(ftpid) {
						t.Errorf("waiter %d's cond_timeout recorded ft_pid %d woken, want its own", ftpid, tu.Outcome)
					}
				}
				if !slices.Equal(ops, row.want) {
					t.Errorf("waiter %d recorded %v, want %v", ftpid, ops, row.want)
				}
				// Its cond_timeout, a wake-up, takes no Seq_thread step.
				if steps := uint64(len(untimed)); p.waitSeqs[i] != steps || s.waitSeqs[i] != steps {
					t.Errorf("waiter %d's Seq_thread after its wait is %d on the primary, %d on the backup; want %d",
						ftpid, p.waitSeqs[i], s.waitSeqs[i], steps)
				}
			}
			for _, tu := range tuples {
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
				if want := !row.timedOut; g != want || s.got[i] != want {
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
// promoted side records live. A woken waiter queued on the backup's held
// mutex — a replayed wake-up handed it the mutex, and the holder's unlock
// grants it once the waiters queued ahead of it had theirs — is a cut the
// sweep finds only at some seeds, so the untimed rows build it as well
// (promoteParked).
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
// The timed input repeats the sweep with consumers that wait with a
// deadline racing the producer's signals (consumerTimeout). Its extra cuts
// fall 1 ns after each effective cond_timeout's emit: some find the
// timeout's tuple dead unflushed, its waiter still queued on the backup
// and woken by promotion instead, and some find a timed waiter that a
// replayed timeout or signal handed the held mutex.
//
// At every cut the promoted side consumes what the dead primary consumed
// under the mutex_lock tuples it replayed and the hand-offs of the
// wake-ups and timeouts it replayed, in the same order, then every
// remaining item exactly once; it counts no divergence, every thread
// returns, and once the run is quiet the one process left is the fork
// recorder's spill server, which stops with its kernel.
func TestCondVarPromotionAtEveryLogBoundary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := replication.DefaultConfig()
		cfg.DetShards = shards
		t.Run(fmt.Sprintf("%d shards untimed", shards), func(t *testing.T) {
			cuts, handed := promoteAtEveryTransfer(t, cfg, -1)
			handed += promoteParked(t, cfg)
			lostWakes := 0 // cuts at which an effective wake-up's tuple died unflushed
			emits := wakeEmits(t, cfg, tickerSeed, -1)
			for _, e := range emits {
				name := fmt.Sprintf("1 ns after the wake-up at log index %d is emitted", e.msg)
				c := promoteAt(t, name, cfg, tickerSeed, true, -1, fmt.Sprintf("kill primary @%dns", e.at+1))
				if c.received <= e.msg {
					lostWakes++
				}
				if c.consumers+c.producer > 0 {
					handed++
				}
			}
			t.Logf("%d cuts lost consumptions; %d wake-ups, %d lost; %d cuts found a woken waiter queued", cuts, len(emits), lostWakes, handed)
			if cuts == 0 || lostWakes == 0 || handed == 0 {
				t.Errorf("%d cuts lost a consumption the primary had made, %d an effective wake-up, %d found a woken waiter queued on the held mutex; want some of each",
					cuts, lostWakes, handed)
			}
		})
		t.Run(fmt.Sprintf("%d shards timed", shards), func(t *testing.T) {
			_, handed := promoteAtEveryTransfer(t, cfg, consumerTimeout)
			lost := 0 // cuts at which an effective timeout's tuple died unflushed
			emits := wakeEmits(t, cfg, tickerSeed, consumerTimeout)
			for _, e := range emits {
				name := fmt.Sprintf("1 ns after the timeout at log index %d is emitted", e.msg)
				c := promoteAt(t, name, cfg, tickerSeed, true, consumerTimeout, fmt.Sprintf("kill primary @%dns", e.at+1))
				if c.received <= e.msg {
					lost++
				}
				if c.consumers > 0 {
					handed++
				}
			}
			t.Logf("%d timeouts, %d lost; %d cuts found a timed waiter queued", len(emits), lost, handed)
			if lost == 0 || handed == 0 {
				t.Errorf("%d cuts lost an effective timeout, %d found a timed waiter queued on the held mutex; want some of each", lost, handed)
			}
		})
	}
}

// consumerTimeout is the timed input's consumer deadline: about half the
// producer's mean pause between items, so timeouts and signals race.
const consumerTimeout = 40 * time.Microsecond

// promoteAtEveryTransfer runs the transfer cuts of
// TestCondVarPromotionAtEveryLogBoundary for consumers waiting with timeout
// (untimed if negative). It returns the cuts that lost consumptions the
// primary had made, and those that found a woken consumer queued on the
// held mutex (or, untimed, the producer).
func promoteAtEveryTransfer(t *testing.T, cfg replication.Config, timeout time.Duration) (cuts, handed int) {
	// A clean run times the transfers.
	var landed []sim.Time
	{
		var pOrder, sOrder []consumption
		var pDone, sDone bool
		d := newDuo(t, tickerSeed, cfg, true)
		d.log.OnDelivered(func() { landed = append(landed, d.sim.Now()) })
		d.pns.Start("app", nil, condVarApp(timeout, &pOrder, &pDone, nil))
		d.sns.Start("app", nil, condVarApp(timeout, &sOrder, &sDone, nil))
		if err := d.sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(landed) < 10 {
		t.Fatalf("only %d log transfers", len(landed))
	}
	for n := 1; n <= len(landed); n++ {
		for _, late := range []bool{false, true} {
			if late && (n == len(landed) || landed[n]-1 <= landed[n-1]) {
				continue
			}
			kill := fmt.Sprintf("kill primary @log#%d", n)
			if late {
				kill = fmt.Sprintf("kill primary @%dns", landed[n]-1)
			}
			c := promoteAt(t, kill, cfg, tickerSeed, false, timeout, kill)
			if c.lost {
				cuts++
			}
			if c.consumers > 0 || timeout < 0 && c.producer > 0 {
				handed++
			}
		}
	}
	return cuts, handed
}

// tickerSeed seeds the sweeps: at it, one det shard and four alike, a run
// beside the ticker thread without promotion's wake-up strands its threads.
const tickerSeed = 7

// promoteParked builds the cut a sweep finds only at some seeds: promotion
// finds a woken waiter queued on the backup's held mutex. The waiter locks
// the mutex and waits, untimed; 1 ms in, the waker locks it, signals, and
// holds it through a 5 ms compute. The backup replays the signal, which
// hands the waiter the mutex its waker still holds, and the primary dies 4
// ms into the compute, promoting the backup. The probe counts the waiters
// so queued at the promotion; the waiter then takes the mutex from the
// waker's unlock, both threads return, and the backup counts no divergence.
func promoteParked(t *testing.T, cfg replication.Config) (handed int) {
	t.Helper()
	var done [2]bool
	var probe func() int
	app := func(done *bool, probe *func() int) func(*replication.Thread) {
		return func(root *replication.Thread) {
			m, c := root.Lib().NewMutex(), root.Lib().NewCond()
			var waiter *kernel.Task
			woken := false
			if probe != nil {
				*probe = func() int {
					if waiter != nil && !woken && m.Owner() != waiter && c.Waiters() == 0 {
						return 1
					}
					return 0
				}
			}
			w := root.NS().SpawnThread(root, "waiter", func(th *replication.Thread) {
				m.Lock(th.Task())
				waiter = th.Task()
				c.Wait(th.Task(), m)
				woken = true
				m.Unlock(th.Task())
			})
			k := root.NS().SpawnThread(root, "waker", func(th *replication.Thread) {
				th.Task().Sleep(time.Millisecond)
				m.Lock(th.Task())
				c.Signal(th.Task())
				th.Task().Compute(5 * time.Millisecond)
				m.Unlock(th.Task())
			})
			root.Join(w)
			root.Join(k)
			*done = true
		}
	}
	d := newDuo(t, tickerSeed, cfg, true)
	defer d.sim.Shutdown()
	d.sim.ScheduleAt(sim.Time(5*time.Millisecond), func() {
		handed = probe()
		d.pk.Panic("injected failure", nil)
		d.sns.Replayer().Promote()
	})
	d.pns.Start("app", nil, app(&done[0], nil))
	d.sns.Start("app", nil, app(&done[1], &probe))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if handed != 1 {
		t.Errorf("promotion found %d woken waiters queued on the held mutex, want the one the cut parks", handed)
	}
	if st := d.sns.ReplayStats(); !done[1] || d.sns.Role() != replication.RoleLive || st.Divergences != 0 {
		t.Errorf("the promoted side returned %v in role %v with %d divergences", done[1], d.sns.Role(), st.Divergences)
	}
	return handed
}

// wakeEmit is the tuple-emit of an effective wake-up or timeout: when, and
// at which log index (the environment is message 0).
type wakeEmit struct {
	at  sim.Time
	msg uint64
}

// wakeEmits runs condVarApp beside the ticker thread once, cleanly, and
// returns the emits of its effective wake-ups — with timeout not negative,
// its consumers' effective timeouts.
func wakeEmits(t *testing.T, cfg replication.Config, seed int64, timeout time.Duration) []wakeEmit {
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	d := newDuo(t, seed, cfg, true)
	tr := obs.New(d.sim, obs.Config{Trace: true})
	d.pns.Instrument(tr.Scope("primary"), tr.Registry())
	var ticker int
	d.pns.Start("app", nil, withTicker(condVarApp(timeout, &pOrder, &pDone, nil), &ticker))
	d.sns.Start("app", nil, withTicker(condVarApp(timeout, &sOrder, &sDone, nil), &ticker))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	msg := make(map[int64]uint64) // effective wake-ups' log indexes, by Seq_global
	for i, tu := range d.pns.RecordedTuples() {
		wake := tu.Op == pthread.OpCondSignal || tu.Op == pthread.OpCondBroadcast
		if timeout >= 0 {
			wake = tu.Op == pthread.OpCondTimeout
		}
		if wake && tu.Outcome != 0 {
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
		t.Fatalf("only %d effective wake-ups or timeouts", len(out))
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
// messages the backup received, and the woken consumers and producer
// promotion found queued on the backup's held mutex.
type cut struct {
	lost                bool
	received            uint64
	consumers, producer int
}

// promoteAt runs one cut of TestCondVarPromotionAtEveryLogBoundary, its
// consumers waiting with timeout (untimed if negative): a chaos injector
// delivers the kill, a chaos kill op on the primary, as a machine check, and
// the backup is promoted as the primary's kernel dies.
func promoteAt(t *testing.T, name string, cfg replication.Config, seed int64, ticker bool, timeout time.Duration, kill string) cut {
	t.Helper()
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	var handed func() (int, int)
	var c cut
	d := newDuo(t, seed, cfg, true)
	defer d.sim.Shutdown() // each cut's, not at the end of the sweep
	inj := chaos.NewInjector(chaos.MustParse(kill), chaos.Env{Sim: d.sim, Machine: d.mach,
		Victim: func(chaos.Target) (int, bool) { return 0, true }}) // node 0 is the primary's
	inj.ArmRing(d.log)
	inj.Start()
	d.mach.OnFault(func(f hw.Fault) { d.pk.HandleFault(f) })
	d.pk.OnPanic(func(kernel.PanicReason) {
		if handed != nil { // the backup's app has started
			c.consumers, c.producer = handed()
		}
		d.sns.Replayer().Promote()
	})
	papp, sapp := condVarApp(timeout, &pOrder, &pDone, nil), condVarApp(timeout, &sOrder, &sDone, &handed)
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
	// mutex_lock tuples, and the wake-ups and timeouts that handed the
	// mutex to the waiters they woke, ordered the first held acquisitions.
	held := 0
	for _, tu := range d.pns.RecordedTuples()[:d.sns.ReplayStats().Sections] {
		switch {
		case tu.Op == pthread.OpMutexLock && tu.FTPid != tickerPid:
			held++
		case (tu.Op == pthread.OpCondSignal || tu.Op == pthread.OpCondTimeout) && tu.Outcome != 0:
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
		emits := wakeEmits(t, cfg, tickerSeed, -1)
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
			d.pns.Start("app", nil, withTicker(condVarApp(-1, &pOrder, &pDone, nil), &ticker))
			d.sns.Start("app", nil, withTicker(condVarApp(-1, &sOrder, &sDone, nil), &ticker))
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
			rns.Start("app", nil, withTicker(condVarApp(-1, &rOrder, &rDone, nil), &ticker))
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
