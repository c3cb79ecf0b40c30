package replication_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
)

func shardedConfig(n int) replication.Config {
	cfg := replication.DefaultConfig()
	cfg.DetShards = n
	return cfg
}

func TestShardedReplayMatchesRecordOrder(t *testing.T) {
	// One shared lock contended by every thread: all sections serialize on
	// one sequencing object, so sharding must not change the replayed
	// acquisition order.
	for seed := int64(1); seed <= 5; seed++ {
		d := newDuo(t, seed, shardedConfig(4), true)
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

// independentLocksApp gives every thread its own mutex and appends each
// thread's acquisitions to its own slice: with sharded det sections the
// threads' sections sequence under different locks and replay concurrently,
// and each per-object order must still match the primary's.
func independentLocksApp(out []*[]int, nIters int) func(*replication.Thread) {
	return func(root *replication.Thread) {
		lib := root.Lib()
		nThreads := len(out)
		locks := make([]*pthread.Mutex, nThreads)
		for i := range locks {
			locks[i] = lib.NewMutex()
		}
		var threads []*replication.Thread
		for i := 0; i < nThreads; i++ {
			i := i
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				for j := 0; j < nIters; j++ {
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
					locks[i].Lock(th.Task())
					*out[i] = append(*out[i], th.FTPid()*1000+j)
					locks[i].Unlock(th.Task())
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
	}
}

// TestShardedIndependentLocksReplay runs the independent-locks workload
// under both sequencing-domain mappings and pins what each one means for
// the replay grants: with one det shard the whole log is one domain and
// grants follow the paper's total order, one at a time; with four, every
// lock is its own domain and grants on different locks are outstanding at
// the same virtual time.
func TestShardedIndependentLocksReplay(t *testing.T) {
	const nThreads, nIters = 8, 40
	for _, tc := range []struct {
		shards  int
		overlap bool
	}{
		{shards: 1, overlap: false},
		{shards: 4, overlap: true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			// Near-free dispatch: the shadow threads' side-local pauses, not
			// the lane owners, decide when a tuple could be granted, so the
			// grant order is the domain mapping's doing.
			cfg := shardedConfig(tc.shards)
			cfg.ReplayDispatchCost = time.Microsecond
			d := newDuo(t, seed, cfg, true)
			tr := obs.New(d.sim, obs.Config{Trace: true})
			d.sns.Instrument(tr.Scope("backup"), nil)
			pOut := make([]*[]int, nThreads)
			sOut := make([]*[]int, nThreads)
			for i := range pOut {
				pOut[i] = new([]int)
				sOut[i] = new([]int)
			}
			d.pns.Start("app", nil, independentLocksApp(pOut, nIters))
			d.sns.Start("app", nil, independentLocksApp(sOut, nIters))
			if err := d.sim.Run(); err != nil {
				t.Fatalf("shards %d seed %d: %v", tc.shards, seed, err)
			}
			for i := range pOut {
				if len(*pOut[i]) != nIters || len(*sOut[i]) != nIters {
					t.Fatalf("shards %d seed %d: lock %d saw %d/%d acquisitions, want %d",
						tc.shards, seed, i, len(*pOut[i]), len(*sOut[i]), nIters)
				}
				for j := range *pOut[i] {
					if (*pOut[i])[j] != (*sOut[i])[j] {
						t.Fatalf("shards %d seed %d: lock %d order diverged at %d", tc.shards, seed, i, j)
					}
				}
			}
			if div := d.sns.Stats().Divergences; div != 0 {
				t.Errorf("shards %d seed %d: %d divergences detected", tc.shards, seed, div)
			}

			// A granted section runs for at least ReplaySectionCost before
			// its domain can grant again, so two grants closer than that
			// are outstanding together.
			var grants []obs.Event
			for _, e := range tr.Events() {
				if e.Kind == obs.Replay {
					grants = append(grants, e)
				}
			}
			if len(grants) == 0 {
				t.Fatalf("shards %d seed %d: no replay grants traced", tc.shards, seed)
			}
			overlaps := 0
			for i := 1; i < len(grants); i++ {
				if tc.shards == 1 && grants[i].Seq <= grants[i-1].Seq {
					t.Fatalf("shards 1 seed %d: grant %d has Seq_global %d after %d: not the recorded total order",
						seed, i, grants[i].Seq, grants[i-1].Seq)
				}
				if grants[i].At.Sub(grants[i-1].At) < cfg.ReplaySectionCost {
					overlaps++
				}
			}
			if tc.overlap && overlaps == 0 {
				t.Errorf("shards %d seed %d: no two grants overlap in virtual time: independent locks replayed serially", tc.shards, seed)
			}
			if !tc.overlap && overlaps != 0 {
				t.Errorf("shards %d seed %d: %d grants overlap in virtual time: one domain must grant one section at a time", tc.shards, seed, overlaps)
			}
		}
	}
}

func TestCrossShardCondVarReplay(t *testing.T) {
	// A condition variable and its user mutex land on DIFFERENT det shards
	// (verified below), so cond_wait's unlock-enqueue-park spans two
	// sequencers; the consumer wake order must still replay exactly.
	const shards = 4
	app := func(out *[]int, placed *[2]int) func(*replication.Thread) {
		return func(root *replication.Thread) {
			lib := root.Lib()
			m := lib.NewMutex()
			c := lib.NewCond()
			placed[0] = pthread.ShardOf(m.ID(), shards)
			placed[1] = pthread.ShardOf(c.ID(), shards)
			queue := 0
			var threads []*replication.Thread
			for i := 0; i < 4; i++ {
				threads = append(threads, root.NS().SpawnThread(root, "consumer", func(th *replication.Thread) {
					for j := 0; j < 5; j++ {
						m.Lock(th.Task())
						for queue == 0 {
							c.Wait(th.Task(), m)
						}
						queue--
						*out = append(*out, th.FTPid())
						m.Unlock(th.Task())
					}
				}))
			}
			prod := root.NS().SpawnThread(root, "producer", func(th *replication.Thread) {
				for j := 0; j < 20; j++ {
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
					m.Lock(th.Task())
					queue++
					c.Signal(th.Task())
					m.Unlock(th.Task())
				}
			})
			threads = append(threads, prod)
			for _, th := range threads {
				root.Join(th)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		var pOrder, sOrder []int
		var placed [2]int
		d := newDuo(t, seed, shardedConfig(shards), true)
		d.pns.Start("app", nil, app(&pOrder, &placed))
		d.sns.Start("app", nil, app(&sOrder, &placed))
		if err := d.sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if placed[0] == placed[1] {
			t.Fatalf("mutex and condvar hashed to the same shard %d; the test must cross shards", placed[0])
		}
		if len(pOrder) != 20 || len(sOrder) != 20 {
			t.Fatalf("seed %d: consumed %d/%d, want 20/20", seed, len(pOrder), len(sOrder))
		}
		for i := range pOrder {
			if pOrder[i] != sOrder[i] {
				t.Fatalf("seed %d: consumer wake order diverged at %d: %v vs %v", seed, i, pOrder, sOrder)
			}
		}
		if div := d.sns.Stats().Divergences; div != 0 {
			t.Errorf("seed %d: %d divergences detected", seed, div)
		}
	}
}

func TestCrossShardCondVarReplayUnderChaos(t *testing.T) {
	// The dup-delay fault pattern applied straight to the log ring (the
	// chaos layer's preset never drops log transfers — the coherency
	// matrix forbids it): every third transfer is duplicated and every
	// fifth delayed. The per-object duplicate filter and the ring's FIFO
	// delay clamp must absorb both without perturbing the replayed wake
	// order of a condvar whose internal lock and user mutex sit on
	// different shards.
	const shards = 4
	app := func(out *[]int) func(*replication.Thread) {
		return func(root *replication.Thread) {
			lib := root.Lib()
			m := lib.NewMutex()
			c := lib.NewCond()
			if pthread.ShardOf(m.ID(), shards) == pthread.ShardOf(c.ID(), shards) {
				panic("mutex and condvar on the same shard; the test must cross shards")
			}
			queue := 0
			var threads []*replication.Thread
			for i := 0; i < 4; i++ {
				threads = append(threads, root.NS().SpawnThread(root, "consumer", func(th *replication.Thread) {
					for j := 0; j < 5; j++ {
						m.Lock(th.Task())
						for queue == 0 {
							c.Wait(th.Task(), m)
						}
						queue--
						*out = append(*out, th.FTPid())
						m.Unlock(th.Task())
					}
				}))
			}
			prod := root.NS().SpawnThread(root, "producer", func(th *replication.Thread) {
				for j := 0; j < 20; j++ {
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
					m.Lock(th.Task())
					queue++
					c.Signal(th.Task())
					m.Unlock(th.Task())
				}
			})
			threads = append(threads, prod)
			for _, th := range threads {
				root.Join(th)
			}
		}
	}
	var pOrder, sOrder []int
	d := newDuo(t, 5, shardedConfig(shards), true)
	n := 0
	d.log.SetChaosHook(func(msgs []shm.Message) shm.ChaosVerdict {
		n++
		var v shm.ChaosVerdict
		if n%3 == 0 {
			v.Dup = 1
		}
		if n%5 == 0 {
			v.Delay = 120 * time.Microsecond
		}
		return v
	})
	d.pns.Start("app", nil, app(&pOrder))
	d.sns.Start("app", nil, app(&sOrder))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pOrder) != 20 || len(sOrder) != 20 {
		t.Fatalf("consumed %d/%d, want 20/20", len(pOrder), len(sOrder))
	}
	for i := range pOrder {
		if pOrder[i] != sOrder[i] {
			t.Fatalf("consumer wake order diverged at %d: %v vs %v", i, pOrder, sOrder)
		}
	}
	st := d.sns.Stats()
	if st.Divergences != 0 {
		t.Errorf("%d divergences detected", st.Divergences)
	}
	if st.Duplicates == 0 {
		t.Error("chaos duplicated transfers but the replayer filtered none")
	}
}

// TestCrossShardCondVarHandOffUnderChaos runs a condition variable and its
// mutex on different det shards, with a third thread contending for the
// mutex between the producer's signals, under the dup-delay log-ring
// faults of TestCrossShardCondVarReplayUnderChaos. The producer signals
// holding the mutex, so every wake-up hands its waiter a held mutex: the
// waiter queues behind whoever asked first — the contender, often. The
// wake-up and the contender's mutex_lock are sequenced on one object (the
// mutex, pthread.Lib.SeqKey), so the backup acquires the mutex in the
// primary's order, hand-offs included, with no divergence.
func TestCrossShardCondVarHandOffUnderChaos(t *testing.T) {
	const shards = 4
	app := func(order *[]int, behind *int) func(*replication.Thread) {
		return func(root *replication.Thread) {
			lib := root.Lib()
			m, c := lib.NewMutex(), lib.NewCond()
			if pthread.ShardOf(m.ID(), shards) == pthread.ShardOf(c.ID(), shards) {
				panic("mutex and condvar on the same shard; the test must cross shards")
			}
			var contender int
			acquired := func(th *replication.Thread) { *order = append(*order, th.FTPid()) }
			queue, done := 0, false
			var threads []*replication.Thread
			for range 3 {
				threads = append(threads, root.NS().SpawnThread(root, "consumer", func(th *replication.Thread) {
					for j := 0; j < 6; j++ {
						m.Lock(th.Task())
						acquired(th)
						for queue == 0 {
							c.Wait(th.Task(), m)
							if prev := (*order)[len(*order)-1]; prev == contender {
								*behind++ // queued behind the contender, not handed the mutex by the producer
							}
							acquired(th)
						}
						queue--
						m.Unlock(th.Task())
					}
				}))
			}
			threads = append(threads, root.NS().SpawnThread(root, "producer", func(th *replication.Thread) {
				for j := 0; j < 18; j++ {
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
					m.Lock(th.Task())
					acquired(th)
					queue++
					c.Signal(th.Task())
					th.Task().Compute(20 * time.Microsecond) // the contender queues meanwhile
					done = j == 17
					m.Unlock(th.Task())
				}
			}))
			threads = append(threads, root.NS().SpawnThread(root, "contender", func(th *replication.Thread) {
				contender = th.FTPid()
				for stop := false; !stop; {
					m.Lock(th.Task())
					acquired(th)
					th.Task().Compute(5 * time.Microsecond)
					stop = done
					m.Unlock(th.Task())
					th.Task().Compute(10 * time.Microsecond)
				}
			}))
			for _, th := range threads {
				root.Join(th)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		var pOrder, sOrder []int
		var pBehind, sBehind int
		d := newDuo(t, seed, shardedConfig(shards), true)
		n := 0
		d.log.SetChaosHook(func([]shm.Message) shm.ChaosVerdict {
			n++
			var v shm.ChaosVerdict
			if n%3 == 0 {
				v.Dup = 1
			}
			if n%5 == 0 {
				v.Delay = 120 * time.Microsecond
			}
			return v
		})
		d.pns.Start("app", nil, app(&pOrder, &pBehind))
		d.sns.Start("app", nil, app(&sOrder, &sBehind))
		if err := d.sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(pOrder, sOrder) {
			t.Fatalf("seed %d: the backup acquired the mutex in order %v, the primary %v", seed, sOrder, pOrder)
		}
		st := d.sns.Stats()
		if st.Divergences != 0 || st.Duplicates == 0 {
			t.Errorf("seed %d: %d divergences, %d duplicates filtered; want none and some", seed, st.Divergences, st.Duplicates)
		}
		t.Logf("seed %d: %d acquisitions, %d woken waiters queued behind the contender", seed, len(pOrder), pBehind)
		if pBehind == 0 {
			t.Errorf("seed %d: no woken waiter queued behind the contender", seed)
		}
	}
}

func TestShardedPromotionAfterPrimaryDeath(t *testing.T) {
	d := newDuo(t, 11, shardedConfig(4), true)
	var pCount, sCount int
	d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 200))
	d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 200))
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

func TestShardedCursorsAgreeAtCompletion(t *testing.T) {
	// After a quiesced run both sides expose identical per-object cursor
	// vectors and Lamport watermarks — the invariant rejoin checkpoint
	// verification is built on.
	d := newDuo(t, 7, shardedConfig(4), true)
	pOut := make([]*[]int, 4)
	sOut := make([]*[]int, 4)
	for i := range pOut {
		pOut[i] = new([]int)
		sOut[i] = new([]int)
	}
	d.pns.Start("app", nil, independentLocksApp(pOut, 25))
	d.sns.Start("app", nil, independentLocksApp(sOut, 25))
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	pObjs := d.pns.ObjCursors()
	sObjs := d.sns.ObjCursors()
	if len(pObjs) == 0 {
		t.Fatal("primary reported no object cursors")
	}
	if len(pObjs) != len(sObjs) {
		t.Fatalf("cursor vector lengths differ: %d vs %d", len(pObjs), len(sObjs))
	}
	for i := range pObjs {
		if pObjs[i] != sObjs[i] {
			t.Fatalf("object cursor %d differs: %+v vs %+v", i, pObjs[i], sObjs[i])
		}
	}
	if head, seq := d.sns.ReplayHead(), d.pns.SeqGlobal(); head != seq {
		t.Fatalf("secondary Lamport frontier %d != primary Seq_global %d", head, seq)
	}
}
