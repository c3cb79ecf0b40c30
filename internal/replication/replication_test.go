package replication_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// duo is a primary/secondary pair wired through a shared-memory fabric.
type duo struct {
	sim    *sim.Simulation
	mach   *hw.Machine
	fabric *shm.Fabric
	pk, sk *kernel.Kernel
	pns    *replication.Namespace
	sns    *replication.Namespace
	log    *shm.Ring
	acks   *shm.Ring
}

func newDuo(t *testing.T, seed int64, cfg replication.Config, fifo bool) *duo {
	t.Helper()
	s := sim.New(seed)
	// A parked process keeps its whole simulation reachable: tear it down.
	t.Cleanup(s.Shutdown)
	m := hw.New(s, hw.Opteron6376x4())
	pp, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	kp.FutexFIFO = fifo
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	if cfg.LogRingBytes == 0 {
		cfg.LogRingBytes = 4 << 20
	}
	log := fabric.NewRing("ftns.log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("ftns.acks", 1, 64<<10)
	return &duo{
		sim: s, mach: m, fabric: fabric, pk: pk, sk: sk,
		pns: replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks}),
		sns: replication.NewSecondary("ftns", sk, cfg, log, acks),
		log: log, acks: acks,
	}
}

// launch runs the same application function on both replicas.
func (d *duo) launch(env map[string]string, app func(*replication.Thread)) {
	d.pns.Start("app", env, app)
	d.sns.Start("app", env, app)
}

// lockOrderApp appends (ftpid, iteration) to out under a shared mutex from
// several threads with side-local random pauses: the append order is the
// lock acquisition order.
func lockOrderApp(out *[]int, nThreads, nIters int) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		var threads []*replication.Thread
		for i := 0; i < nThreads; i++ {
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				for j := 0; j < nIters; j++ {
					// Local (unreplicated) timing noise: schedules differ
					// across replicas; only replay keeps orders equal.
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(300)) * time.Microsecond)
					m.Lock(th.Task())
					// Hold the lock while working so unlock hand-off (the
					// FIFO-futex path) is actually contended.
					th.Task().Compute(30 * time.Microsecond)
					*out = append(*out, th.FTPid()*1000+j)
					m.Unlock(th.Task())
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
	}
}

func TestReplayMatchesRecordOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := newDuo(t, seed, replication.DefaultConfig(), true)
		var pOrder, sOrder []int
		d.pns.Start("app", nil, lockOrderApp(&pOrder, 6, 15))
		d.sns.Start("app", nil, lockOrderApp(&sOrder, 6, 15))
		if err := d.sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(pOrder) != 6*15 || len(sOrder) != len(pOrder) {
			t.Fatalf("seed %d: lengths %d vs %d", seed, len(pOrder), len(sOrder))
		}
		for i := range pOrder {
			if pOrder[i] != sOrder[i] {
				t.Fatalf("seed %d: replay diverged at %d: primary %d, secondary %d",
					seed, i, pOrder[i], sOrder[i])
			}
		}
		if div := d.sns.Stats().Divergences; div != 0 {
			t.Errorf("seed %d: %d divergences detected", seed, div)
		}
	}
}

// consumption is one item a consumer took off condVarApp's queue. acq
// numbers the critical section it was taken in: the app counts the mutex's
// acquisitions, and the k-th acquisition is the one the mutex's k-th
// mutex_lock tuple ordered.
type consumption struct{ acq, ftpid, item int }

// condVarApp is a producer/consumer queue of one slot under one mutex and
// two condition variables: four consumers take five items each, waiting
// while the queue is empty — untimed, or with timeout if it is not
// negative — and signalling room for the next item, and the producer
// appends twenty items after side-local pauses, waiting untimed for room,
// signalling one consumer per item and broadcasting to all of them for
// every fourth. done reports that every thread returned. A non-nil handed
// is set to a probe that counts the woken waiters queued on the held
// mutex, which a wake-up or timeout handed it (pthread.Cond.Wake,
// pthread.Cond.TimeOut): consumers and the producer.
func condVarApp(timeout time.Duration, out *[]consumption, done *bool, handed *func() (consumers, producer int)) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		c, room := lib.NewCond(), lib.NewCond()
		var queue []int
		acq := 0
		waiting := make(map[*kernel.Task]*pthread.Cond) // tasks inside a wait call, and on what
		if handed != nil {
			// A waiter is dequeued by its wake-up, and then owns m or
			// waits queued for it.
			*handed = func() (consumers, producer int) {
				for t, cv := range waiting {
					switch {
					case t == m.Owner():
					case cv == c:
						consumers++
					default:
						producer++
					}
				}
				return consumers - c.Waiters(), producer - room.Waiters()
			}
		}
		wait := func(cv *pthread.Cond, t *kernel.Task) {
			waiting[t] = cv
			if cv == c && timeout >= 0 {
				cv.TimedWait(t, m, timeout)
			} else {
				cv.Wait(t, m)
			}
			delete(waiting, t)
			acq++
		}
		var threads []*replication.Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, root.NS().SpawnThread(root, "consumer", func(th *replication.Thread) {
				for j := 0; j < 5; j++ {
					m.Lock(th.Task())
					acq++
					for len(queue) == 0 {
						wait(c, th.Task())
					}
					*out = append(*out, consumption{acq, th.FTPid(), queue[0]})
					queue = queue[1:]
					room.Signal(th.Task())
					m.Unlock(th.Task())
				}
			}))
		}
		prod := root.NS().SpawnThread(root, "producer", func(th *replication.Thread) {
			for j := 0; j < 20; j++ {
				th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
				m.Lock(th.Task())
				acq++
				for len(queue) > 0 {
					wait(room, th.Task())
				}
				queue = append(queue, j)
				if j%4 == 3 {
					c.Broadcast(th.Task())
				} else {
					c.Signal(th.Task())
				}
				m.Unlock(th.Task())
			}
		})
		threads = append(threads, prod)
		for _, th := range threads {
			root.Join(th)
		}
		*done = true
	}
}

func TestCondVarReplay(t *testing.T) {
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	d := newDuo(t, 3, replication.DefaultConfig(), true)
	d.pns.Start("app", nil, condVarApp(-1, &pOrder, &pDone, nil))
	d.sns.Start("app", nil, condVarApp(-1, &sOrder, &sDone, nil))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pOrder) != 20 || len(sOrder) != 20 || !pDone || !sDone {
		t.Fatalf("consumed %d/%d, want 20/20; returned %v/%v", len(pOrder), len(sOrder), pDone, sDone)
	}
	for i := range pOrder {
		if pOrder[i] != sOrder[i] {
			t.Fatalf("consumer wake order diverged at %d: %v vs %v", i, pOrder, sOrder)
		}
	}
	if div := d.sns.Stats().Divergences; div != 0 {
		t.Errorf("%d divergences detected", div)
	}
}

func TestTimedWaitOutcomeReplicated(t *testing.T) {
	// The timeout-versus-signal race resolves identically on both sides
	// because the outcome is recorded, even though the secondary's local
	// timing is different.
	app := func(out *[]bool) func(*replication.Thread) {
		return func(root *replication.Thread) {
			lib := root.Lib()
			m := lib.NewMutex()
			c := lib.NewCond()
			var threads []*replication.Thread
			for i := 0; i < 6; i++ {
				i := i
				threads = append(threads, root.NS().SpawnThread(root, "waiter", func(th *replication.Thread) {
					m.Lock(th.Task())
					got := c.TimedWait(th.Task(), m, time.Duration(1+i)*time.Millisecond)
					m.Unlock(th.Task())
					m.Lock(th.Task())
					*out = append(*out, got)
					m.Unlock(th.Task())
				}))
			}
			sig := root.NS().SpawnThread(root, "signaler", func(th *replication.Thread) {
				th.Task().Sleep(3 * time.Millisecond)
				for j := 0; j < 3; j++ {
					m.Lock(th.Task())
					c.Signal(th.Task())
					m.Unlock(th.Task())
				}
			})
			threads = append(threads, sig)
			for _, th := range threads {
				root.Join(th)
			}
		}
	}
	var pOut, sOut []bool
	d := newDuo(t, 9, replication.DefaultConfig(), true)
	d.pns.Start("app", nil, app(&pOut))
	d.sns.Start("app", nil, app(&sOut))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pOut) != 6 || len(sOut) != 6 {
		t.Fatalf("outcomes %d/%d, want 6/6", len(pOut), len(sOut))
	}
	for i := range pOut {
		if pOut[i] != sOut[i] {
			t.Fatalf("timedwait outcomes diverged: %v vs %v", pOut, sOut)
		}
	}
	if d.sns.Stats().Divergences != 0 {
		t.Errorf("divergences: %d", d.sns.Stats().Divergences)
	}
}

func TestGetTimeOfDayReplicated(t *testing.T) {
	var pTimes, sTimes []sim.Time
	app := func(out *[]sim.Time) func(*replication.Thread) {
		return func(root *replication.Thread) {
			for i := 0; i < 5; i++ {
				root.Task().Sleep(time.Millisecond)
				*out = append(*out, root.Now())
			}
		}
	}
	d := newDuo(t, 4, replication.DefaultConfig(), true)
	d.pns.Start("app", nil, app(&pTimes))
	d.sns.Start("app", nil, app(&sTimes))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range pTimes {
		if pTimes[i] != sTimes[i] {
			t.Fatalf("gettimeofday diverged: %v vs %v", pTimes, sTimes)
		}
	}
}

func TestEnvReplicated(t *testing.T) {
	var got string
	d := newDuo(t, 6, replication.DefaultConfig(), true)
	d.pns.Start("app", map[string]string{"MODE": "ft"}, func(*replication.Thread) {})
	d.sns.Start("app", map[string]string{"MODE": "WRONG-LOCAL-VALUE"}, func(root *replication.Thread) {
		got = root.NS().Getenv("MODE")
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "ft" {
		t.Errorf("secondary env MODE = %q, want %q (the primary's)", got, "ft")
	}
}

func TestFTPidsMatchAcrossReplicas(t *testing.T) {
	collect := func(out *[]int) func(*replication.Thread) {
		return func(root *replication.Thread) {
			lib := root.Lib()
			m := lib.NewMutex()
			var threads []*replication.Thread
			for i := 0; i < 3; i++ {
				// Spawner threads that themselves spawn: ft_pid assignment
				// must still agree because it happens in a det section.
				threads = append(threads, root.NS().SpawnThread(root, "spawner", func(th *replication.Thread) {
					child := th.NS().SpawnThread(th, "child", func(ch *replication.Thread) {
						m.Lock(ch.Task())
						*out = append(*out, ch.FTPid())
						m.Unlock(ch.Task())
					})
					th.Join(child)
				}))
			}
			for _, th := range threads {
				root.Join(th)
			}
		}
	}
	var pPids, sPids []int
	d := newDuo(t, 7, replication.DefaultConfig(), true)
	d.pns.Start("app", nil, collect(&pPids))
	d.sns.Start("app", nil, collect(&sPids))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pPids) != 3 || len(sPids) != 3 {
		t.Fatalf("pids %v / %v", pPids, sPids)
	}
	for i := range pPids {
		if pPids[i] != sPids[i] {
			t.Fatalf("child ft_pids diverged: %v vs %v", pPids, sPids)
		}
	}
}

func TestOutputCommitWaitsForAck(t *testing.T) {
	// Use an artificially slow mailbox so the receipt round-trip is long
	// enough to observe: output requested right after a section must be
	// held until the log message has propagated and its receipt has been
	// observed (two propagation delays).
	s := sim.New(8)
	m := hw.New(s, hw.Opteron6376x4())
	pp, _ := m.NewPartition("primary", 0, 1, 2, 3)
	sp, _ := m.NewPartition("secondary", 4, 5, 6, 7)
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	const slow = 200 * time.Microsecond
	fabric := shm.NewFabric(s, slow)
	cfg := replication.DefaultConfig()
	cfg.StrictOutputCommit = true
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 64<<10)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)

	var releasedAt, requestedAt sim.Time
	pns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		mx := lib.NewMutex()
		mx.Lock(root.Task())
		mx.Unlock(root.Task())
		requestedAt = root.Task().Now()
		root.NS().OnStable(func() { releasedAt = s.Now() })
	})
	sns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		mx := lib.NewMutex()
		mx.Lock(root.Task())
		mx.Unlock(root.Task())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if releasedAt == 0 {
		t.Fatal("output never became stable")
	}
	if gap := releasedAt.Sub(requestedAt); gap <= 0 || gap > 3*slow {
		t.Errorf("released %v after request, want within (0, %v] (receipt round-trip)", gap, 3*slow)
	}
}

func TestRelaxedOutputCommitImmediate(t *testing.T) {
	cfg := replication.DefaultConfig()
	cfg.StrictOutputCommit = false
	d := newDuo(t, 8, cfg, true)
	released := false
	d.pns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		m.Lock(root.Task())
		m.Unlock(root.Task())
		root.NS().OnStable(func() { released = true })
		if !released {
			t.Error("relaxed output commit did not release immediately")
		}
	})
	d.sns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		m.Lock(root.Task())
		m.Unlock(root.Task())
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStockFutexOrderBreaksReplay(t *testing.T) {
	// The ablation behind the paper's FIFO-futex modification (§3.3): with
	// stock (unordered) wake-up, the secondary hands contended locks and
	// condition signals to different threads than the primary did, and
	// replay stalls: the thread owed the next turn never arrives, because
	// it is still parked on the mutex or in an untimed condition wait (the
	// one a signal woke instead has no recorded turn). Replay may also
	// complete in a different order, or detect a divergence.
	//
	// Condition variables (TestCondVarReplay's app, untimed waits): a
	// wake-up's tuple names the waiter it woke, and the backup, applying it
	// to its own queue, picks another — a divergence.
	condBroken := false
	for seed := int64(1); seed <= 10 && !condBroken; seed++ {
		d := newDuo(t, seed, replication.DefaultConfig(), false)
		var pOrder, sOrder []consumption
		var done bool
		d.pns.Start("app", nil, condVarApp(-1, &pOrder, &done, nil))
		d.sns.Start("app", nil, condVarApp(-1, &sOrder, &done, nil))
		if err := d.sim.Run(); err != nil {
			t.Fatal(err)
		}
		condBroken = d.sns.Stats().Divergences > 0
	}
	if !condBroken {
		t.Error("stock futex order never counted a condition-variable divergence across 10 seeds")
	}

	// Mutexes.
	broken := false
	for seed := int64(1); seed <= 10 && !broken; seed++ {
		d := newDuo(t, seed, replication.DefaultConfig(), false)
		var pOrder, sOrder []int
		d.pns.Start("app", nil, lockOrderApp(&pOrder, 6, 10))
		d.sns.Start("app", nil, lockOrderApp(&sOrder, 6, 10))
		if err := d.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if d.sns.Stats().Divergences > 0 || len(sOrder) < len(pOrder) {
			broken = true
		}
		// The most insidious failure: replay completes but the replica's
		// state silently differs (lock acquisitions in a different order).
		for i := range pOrder {
			if i < len(sOrder) && sOrder[i] != pOrder[i] {
				broken = true
				break
			}
		}
	}
	if !broken {
		t.Error("stock futex order never broke replay across 10 seeds")
	}

	// Control: with FIFO order the same workloads replay fully.
	d := newDuo(t, 1, replication.DefaultConfig(), true)
	var pOrder, sOrder []int
	d.pns.Start("app", nil, lockOrderApp(&pOrder, 6, 10))
	d.sns.Start("app", nil, lockOrderApp(&sOrder, 6, 10))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sOrder) != len(pOrder) || d.sns.Stats().Divergences != 0 {
		t.Error("control run with FIFO futex did not replay cleanly")
	}
}

func TestPromotionAfterPrimaryDeath(t *testing.T) {
	d := newDuo(t, 11, replication.DefaultConfig(), true)
	var pCount, sCount int
	counter := func(out *int) func(*replication.Thread) {
		return lockCounterApp(out, 4, 200)
	}
	d.pns.Start("app", nil, counter(&pCount))
	d.sns.Start("app", nil, counter(&sCount))
	// Kill the primary mid-run, then promote the secondary.
	d.sim.Schedule(40*time.Millisecond, func() {
		d.pk.Panic("injected failure", nil)
		d.sns.Replayer().Promote()
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sCount != 4*200 {
		t.Errorf("secondary finished %d increments, want %d (live continuation)", sCount, 4*200)
	}
	if d.sns.Role() != replication.RoleLive {
		t.Errorf("secondary role = %v, want live", d.sns.Role())
	}
	if pCount == 4*200 {
		t.Skip("primary finished before the injected failure; timing too fast to exercise failover")
	}
}

// TestPromotionReplaysAcknowledgedTail promotes while the backup is
// mid-batch: it has acknowledged a batch at receipt (§3.5) and is still
// paying the per-tuple dispatch cost — in its pull task at one shard, in the
// grant tasks at four, where receipt is the log ring's receiver event. Every
// tuple behind the receipt watermark, and every one the dead primary left
// delivered in the ring, must be replayed before the replica goes live —
// the primary may already have released output that depends on them. One
// row promotes at the instant a log transfer lands, after the delivery has
// armed the receiver and before it fires: what it would have received is
// the promotion's to drain; another does so at a delivery that finds a
// grant lane's worker paying for its head, which the promotion delivers.
func TestPromotionReplaysAcknowledgedTail(t *testing.T) {
	for _, row := range []struct {
		name        string
		shards      int
		atArrival   bool
		midDispatch bool
	}{
		{"one shard", 1, false, false},
		{"four shards", 4, false, false},
		{"four shards, receiver armed", 4, true, false},
		{"four shards, receiver armed, lane worker mid-dispatch", 4, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := replication.DefaultConfig()
			cfg.DetShards = row.shards
			d := newDuo(t, 11, cfg, true)
			var pCount, sCount int
			d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 200))
			d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 200))
			var want, headAtKill uint64
			armed, promoted, dispatching := false, false, false
			promote := func() {
				promoted = true
				dispatching = d.sns.LaneDispatching()
				d.pk.Panic("injected failure", nil)
				// Received plus delivered-but-unpulled messages, less the env one.
				want = d.sns.Processed() + uint64(d.log.Len()) - 1
				headAtKill = d.sns.ReplayHead()
				armed = row.shards > 1 && d.sns.ReceiverArmed()
				d.sns.Replayer().Promote()
			}
			if row.atArrival {
				// Delivery callbacks run before the receiver is armed, so a
				// callback scheduled from one runs ahead of its firing. At
				// four shards the primary's last transfer lands near 12ms.
				d.log.OnDelivered(func() {
					if !promoted && d.sim.Now() >= sim.Time(6*time.Millisecond) && !d.sns.ReceiverArmed() &&
						(!row.midDispatch || d.sns.LaneDispatching()) {
						promoted = true
						d.sim.Schedule(0, promote)
					}
				})
			} else {
				d.sim.Schedule(40*time.Millisecond, promote)
			}
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if headAtKill >= want {
				t.Fatalf("replay head %d had no backlog behind %d received tuples: the kill must land mid-batch", headAtKill, want)
			}
			if armed != row.atArrival {
				t.Fatalf("receiver armed at the promotion: %v, want %v", armed, row.atArrival)
			}
			if row.midDispatch && !dispatching {
				t.Fatal("no lane worker was paying for its head at the promotion")
			}
			if got := d.sns.ReplayStats().Sections; got != want {
				t.Errorf("replayed %d sections, want all %d tuples received or left in the ring", got, want)
			}
			if sCount != 4*200 {
				t.Errorf("secondary finished %d increments, want %d (live continuation)", sCount, 4*200)
			}
		})
	}
}

// TestPrimaryDeathFreezesAckWatermark: the recorder's acks-ring receiver
// dies with the primary's kernel, as the task it replaces did. The backup
// goes on acknowledging its backlog, and those acks stay in the ring: the
// receipt watermark the dead recorder exposes no longer moves.
func TestPrimaryDeathFreezesAckWatermark(t *testing.T) {
	d := newDuo(t, 11, replication.DefaultConfig(), true)
	var pCount, sCount int
	d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 200))
	d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 200))
	var lenAtDeath int
	var deliveredAtDeath int64
	d.sim.Schedule(40*time.Millisecond, func() {
		d.pk.Panic("injected failure", nil)
		lenAtDeath, deliveredAtDeath = d.acks.Len(), d.acks.Delivered()
	})
	// The receipt observed from the log ring's slot state lands one hop
	// after the last transfer in flight at the death; by then it has.
	var frozen uint64
	d.sim.Schedule(41*time.Millisecond, func() { frozen = d.pns.Watermarks()[0].Watermark })
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	after := d.acks.Delivered() - deliveredAtDeath
	if after == 0 {
		t.Fatal("no ack arrived after the primary's death: the backup had no backlog to acknowledge")
	}
	if got, want := d.acks.Len(), lenAtDeath+int(after); got != want {
		t.Errorf("%d acks left in the ring, want the %d there at the death plus the %d delivered since", got, lenAtDeath, after)
	}
	if got := d.pns.Watermarks()[0].Watermark; got != frozen {
		t.Errorf("dead recorder's watermark %d, was %d after the death; want it frozen", got, frozen)
	}
}

// lockCounterApp increments a shared counter under a mutex.
func lockCounterApp(out *int, nThreads, nIters int) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		var threads []*replication.Thread
		for i := 0; i < nThreads; i++ {
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				for j := 0; j < nIters; j++ {
					th.Task().Compute(50 * time.Microsecond)
					m.Lock(th.Task())
					*out++
					m.Unlock(th.Task())
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
	}
}

func TestPrimaryGoLiveAfterSecondaryDeath(t *testing.T) {
	cfg := replication.DefaultConfig()
	cfg.LogRingBytes = 16 << 10 // small: primary would stall without Degrade
	d := newDuo(t, 12, cfg, true)
	var pCount, sCount int
	d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 300))
	d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 300))
	d.sim.Schedule(10*time.Millisecond, func() {
		d.sk.Panic("injected failure", nil)
		d.pns.Degrade()
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pCount != 4*300 {
		t.Errorf("primary finished %d increments, want %d", pCount, 4*300)
	}
	if d.pns.Role() != replication.RoleLive {
		t.Errorf("primary role = %v, want live", d.pns.Role())
	}
}

func TestSecondaryLagsButStaysBounded(t *testing.T) {
	// The log ring is the in-flight buffer: with a tiny ring the primary
	// must throttle to the secondary's replay rate (sustained mode).
	cfg := replication.DefaultConfig()
	cfg.LogRingBytes = 2 << 10 // ~16 tuples
	cfg.ReplayDispatchCost = 200 * time.Microsecond
	// The bounds below are calibrated in per-tuple ring units: stream every
	// tuple individually. TestSecondaryLagsBoundedWithBatching covers the
	// coalesced path.
	cfg.BatchTuples = 1
	d := newDuo(t, 13, cfg, true)
	var pDone, sDone sim.Time
	done := func(at *sim.Time, out *int) func(*replication.Thread) {
		app := lockCounterApp(out, 2, 50)
		return func(root *replication.Thread) {
			app(root)
			*at = root.Task().Now()
		}
	}
	var pCount, sCount int
	d.pns.Start("app", nil, done(&pDone, &pCount))
	d.sns.Start("app", nil, done(&sDone, &sCount))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 2x50 lock ops + other sections at >=200us serialized replay each
	// puts a floor on the secondary's completion...
	if sDone < sim.Time(20*time.Millisecond) {
		t.Errorf("secondary done at %v — replay cost not applied", sDone)
	}
	// ...and the tiny ring (~16 tuples, i.e. ~3.2ms of buffered replay
	// work) forces the primary to stay within roughly one ring of the
	// secondary rather than sprinting ahead. Unthrottled, the primary
	// would finish in ~3ms.
	if pDone < sim.Time(12*time.Millisecond) {
		t.Errorf("primary done at %v — no backpressure from the log ring", pDone)
	}
	if lead := sDone.Sub(pDone); lead > 6*time.Millisecond {
		t.Errorf("primary leads secondary by %v — more than one ring of in-flight work", lead)
	}
}

// TestSecondaryLagsBoundedWithBatching is the batched counterpart: tuple
// coalescing widens the in-flight window by at most one batch per side (the
// primary's pending buffer plus the replayer's drained-but-undispatched
// batch), so throttling to the secondary's drain rate must survive.
func TestSecondaryLagsBoundedWithBatching(t *testing.T) {
	cfg := replication.DefaultConfig()
	cfg.LogRingBytes = 2 << 10 // ~16 tuples in flight
	cfg.ReplayDispatchCost = 200 * time.Microsecond
	cfg.BatchTuples = 8
	d := newDuo(t, 13, cfg, true)
	var pDone, sDone sim.Time
	done := func(at *sim.Time, out *int) func(*replication.Thread) {
		app := lockCounterApp(out, 2, 50)
		return func(root *replication.Thread) {
			app(root)
			*at = root.Task().Now()
		}
	}
	var pCount, sCount int
	d.pns.Start("app", nil, done(&pDone, &pCount))
	d.sns.Start("app", nil, done(&sDone, &sCount))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sDone < sim.Time(20*time.Millisecond) {
		t.Errorf("secondary done at %v — replay cost not applied", sDone)
	}
	if pDone < sim.Time(12*time.Millisecond) {
		t.Errorf("primary done at %v — no backpressure from the log ring", pDone)
	}
	// One ring (~16 tuples) + one pending batch + one drained batch ≈ 32
	// tuples ≈ 6.4ms of replay work; allow a little slack on top.
	if lead := sDone.Sub(pDone); lead > 8*time.Millisecond {
		t.Errorf("primary leads secondary by %v with batching — in-flight window unbounded", lead)
	}
}

func TestTaskOutsideNamespacePanics(t *testing.T) {
	d := newDuo(t, 14, replication.DefaultConfig(), true)
	lib := d.pns.Lib()
	m := lib.NewMutex()
	d.pk.Spawn("outsider", func(tk *kernel.Task) {
		defer func() {
			if recover() == nil {
				t.Error("interposed op by task outside namespace did not panic")
			}
			panic(recoverSilencer{})
		}()
		m.Lock(tk)
	})
	defer func() {
		if r := recover(); r != nil {
			// the re-panic above unwinds through sim.Run; expected.
			_ = r
		}
	}()
	_ = d.sim.Run()
}

type recoverSilencer struct{}

var _ pthread.Det = (*replication.Namespace)(nil)

// TestStrictCommitForcesFlush pins the batching invariant: a strict
// output-commit waiter flushes buffered tuples immediately, so commit
// latency never waits out a FlushInterval or a partially filled batch —
// also while another backup is still catching up after a rejoin (the
// syncing case: its ring is full and nobody drains it, so it stays in
// catch-up, outside the commit set, for the whole run).
func TestStrictCommitForcesFlush(t *testing.T) {
	for _, syncing := range []bool{false, true} {
		cfg := replication.DefaultConfig()
		cfg.BatchTuples = 64                // far more than the app emits: no size-triggered flush
		cfg.FlushInterval = 1 * time.Second // the timer must never be what releases output
		d := newDuo(t, 31, cfg, true)
		var requestedAt, releasedAt sim.Time
		d.pns.Start("app", nil, func(root *replication.Thread) {
			lib := root.Lib()
			mx := lib.NewMutex()
			for i := 0; i < 5; i++ {
				mx.Lock(root.Task())
				mx.Unlock(root.Task())
			}
			if syncing {
				log := d.fabric.NewRing("ftns.log.g1", 0, 4<<10)
				for log.TrySend(shm.Message{Size: 512}) {
				}
				root.NS().AddReplica(log, d.fabric.NewRing("ftns.acks.g1", 1, 64<<10), nil)
			}
			requestedAt = root.Task().Now()
			root.NS().OnStable(func() { releasedAt = d.sim.Now() })
		})
		d.sns.Start("app", nil, func(root *replication.Thread) {
			lib := root.Lib()
			mx := lib.NewMutex()
			for i := 0; i < 5; i++ {
				mx.Lock(root.Task())
				mx.Unlock(root.Task())
			}
		})
		if err := d.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if releasedAt == 0 || releasedAt < requestedAt {
			t.Fatalf("syncing=%v: release at %v, requested at %v", syncing, releasedAt, requestedAt)
		}
		if gap := releasedAt.Sub(requestedAt); gap > time.Millisecond {
			t.Errorf("syncing=%v: output-commit gap %v — the waiter did not force a flush", syncing, gap)
		}
		// Without the forced flush nothing (not even the env message) would
		// reach the secondary before the 1s timer, so release would happen
		// at >= 1s. (The run itself may still end at ~1s: tuples emitted
		// after the last commit point legitimately wait for the timer.)
		if releasedAt > sim.Time(10*time.Millisecond) {
			t.Errorf("syncing=%v: released at %v — output commit waited for the flush timer", syncing, releasedAt)
		}
		if w := d.pns.Watermarks(); syncing && (len(w) != 2 || !w[1].Syncing) {
			t.Errorf("watermarks %+v: the rejoined backup left catch-up", w)
		}
	}
}

// TestBatchedAcksCoalesce verifies batch ingestion acks once per drained
// batch: the acks are cumulative, so the acks ring traffic drops well below
// one message per tuple while output commit still completes.
func TestBatchedAcksCoalesce(t *testing.T) {
	cfg := replication.DefaultConfig()
	cfg.BatchTuples = 8
	d := newDuo(t, 33, cfg, true)
	var pCount, sCount int
	var released sim.Time
	d.pns.Start("app", nil, func(root *replication.Thread) {
		lockCounterApp(&pCount, 2, 50)(root)
		root.NS().OnStable(func() { released = d.sim.Now() })
	})
	d.sns.Start("app", nil, lockCounterApp(&sCount, 2, 50))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.sns.Stats()
	if st.AckMessages == 0 || st.AckMessages*2 > st.LogMessages {
		t.Errorf("AckMessages = %d for %d tuples — acks not coalesced per batch", st.AckMessages, st.LogMessages)
	}
	if released == 0 {
		t.Error("output never committed with batched acks")
	}
	if pCount != 100 || sCount != 100 {
		t.Errorf("counts %d/%d, want 100 each", pCount, sCount)
	}
}

// sectionMisuse runs one section on both replicas of a duo, with misuse
// called inside it on side only, and returns what misuse panicked with.
// Every thread holds the section open while misuse runs; the other side
// closes it normally, so the secondary's replayed section opens too.
func sectionMisuse(t *testing.T, side replication.Role, misuse func(th *replication.Thread, obj uint64)) any {
	t.Helper()
	d := newDuo(t, 15, replication.DefaultConfig(), true)
	var got any
	d.launch(nil, func(th *replication.Thread) {
		tk, ns := th.Task(), th.NS()
		obj := th.Lib().NewMutex().ID()
		ns.Enter(tk, pthread.OpMutexLock, obj)
		if ns.Role() == side {
			defer func() { got = recover() }()
			misuse(th, obj)
		}
		ns.Exit(tk, 0)
	})
	if err := d.sim.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkSectionError asserts got is the typed panic of the mutex_lock
// section sectionMisuse opens, naming call as the misuse.
func checkSectionError(t *testing.T, got any, call string) {
	t.Helper()
	se, ok := got.(*pthread.SectionError)
	if !ok {
		t.Fatalf("misuse inside an open section panicked with %v (%T), want a *pthread.SectionError", got, got)
	}
	if se.Call != call || se.Op != pthread.OpMutexLock || se.FTPid != 1 || se.Task != "app" {
		t.Errorf("SectionError = %+v, want call %q inside ft_pid 1's mutex_lock section", *se, call)
	}
	if msg := se.Error(); !strings.Contains(msg, `task "app" (ft_pid 1) called `+call+" inside its open") {
		t.Errorf("SectionError.Error = %q does not name the task, ft_pid and call", msg)
	}
}

// TestParkInsideSectionPanics pins the runtime guard over an open det
// section: a thread that parks before its Exit — holding the det-section
// lock or, replaying, its object's turn — panics at the park, on either
// side, whether it parks on a lock's futex or on any other wait queue (a
// socket, a ring).
func TestParkInsideSectionPanics(t *testing.T) {
	parks := map[string]func(*kernel.Task){
		"futex": func(tk *kernel.Task) { tk.Waiter().Park() },
		"queue": func(tk *kernel.Task) { new(sim.WaitQueue).WaitTimeout(tk.Proc(), time.Millisecond) },
	}
	for name, park := range parks {
		for _, side := range []replication.Role{replication.RolePrimary, replication.RoleSecondary} {
			got := sectionMisuse(t, side, func(th *replication.Thread, _ uint64) { park(th.Task()) })
			t.Run(name+"/"+side.String(), func(t *testing.T) { checkSectionError(t, got, "park") })
		}
	}
}

// TestEnterInsideSectionPanics pins the other half of the guard: a second
// Enter before the first section's Exit panics instead of self-deadlocking
// on the det-section lock (or parking for a replay turn it already holds).
func TestEnterInsideSectionPanics(t *testing.T) {
	for _, side := range []replication.Role{replication.RolePrimary, replication.RoleSecondary} {
		got := sectionMisuse(t, side, func(th *replication.Thread, obj uint64) {
			th.NS().Enter(th.Task(), pthread.OpMutexTrylock, obj)
		})
		checkSectionError(t, got, "Enter")
	}
}

// TestHeldReplicaStaysOutOfTheQuorum: a held backup does not count for
// output commit — the only backup held, stability is vacuous, as while a
// rejoined backup catches up — and once released, output waits for its
// receipt again.
func TestHeldReplicaStaysOutOfTheQuorum(t *testing.T) {
	d := newDuo(t, 35, replication.DefaultConfig(), true)
	var gaps []time.Duration
	app := func(root *replication.Thread) {
		mx := root.Lib().NewMutex()
		for _, held := range []bool{true, false} {
			if root.NS().Recording() {
				root.NS().HoldReplica(0, held)
			}
			mx.Lock(root.Task())
			mx.Unlock(root.Task())
			if root.NS().Recording() {
				at := root.Task().Now()
				root.NS().OnStable(func() { gaps = append(gaps, d.sim.Now().Sub(at)) })
			}
		}
	}
	d.pns.Start("app", nil, app)
	d.sns.Start("app", nil, app)
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 2 || gaps[0] != 0 || gaps[1] <= 0 {
		t.Errorf("output released after %v held, then released; want 0, then a receipt's wait", gaps)
	}
}
