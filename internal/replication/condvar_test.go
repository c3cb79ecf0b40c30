package replication_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TestCondWaitSectionInventory pins the sections a condition wait records.
// An untimed wait records its cond_wait and, once signaled, the mutex_lock
// that re-acquires the mutex: the signal's own section dequeued it, so
// there is no race left to record. A timed wait records a cond_resolve
// between the two, carrying the outcome of its timeout-versus-signal race
// — timed out, or signaled in time. The backup replays every tuple with
// no divergence and returns the same outcome.
func TestCondWaitSectionInventory(t *testing.T) {
	for _, row := range []struct {
		name    string
		timeout time.Duration // < 0: untimed
		want    []pthread.Op
		outcome uint64 // of the cond_resolve section, if any
	}{
		{"untimed", -1, []pthread.Op{pthread.OpMutexLock, pthread.OpCondWait, pthread.OpMutexLock}, 0},
		{"timed out", 200 * time.Microsecond,
			[]pthread.Op{pthread.OpMutexLock, pthread.OpCondTimedwait, pthread.OpCondResolve, pthread.OpMutexLock}, pthread.OutcomeTimedOut},
		{"signaled in time", 5 * time.Millisecond,
			[]pthread.Op{pthread.OpMutexLock, pthread.OpCondTimedwait, pthread.OpCondResolve, pthread.OpMutexLock}, pthread.OutcomeSignaled},
	} {
		t.Run(row.name, func(t *testing.T) {
			var waiter int
			app := func(got *bool) func(*replication.Thread) {
				return func(root *replication.Thread) {
					lib := root.Lib()
					m, c := lib.NewMutex(), lib.NewCond()
					w := root.NS().SpawnThread(root, "waiter", func(th *replication.Thread) {
						waiter = th.FTPid()
						m.Lock(th.Task())
						if row.timeout < 0 {
							c.Wait(th.Task(), m)
							*got = true
						} else {
							*got = c.TimedWait(th.Task(), m, row.timeout)
						}
						m.Unlock(th.Task())
					})
					s := root.NS().SpawnThread(root, "signaler", func(th *replication.Thread) {
						th.Task().Sleep(time.Millisecond)
						m.Lock(th.Task())
						c.Signal(th.Task())
						m.Unlock(th.Task())
					})
					root.Join(w)
					root.Join(s)
				}
			}
			var pGot, sGot bool
			d := newDuo(t, 1, replication.DefaultConfig(), true)
			d.pns.Start("app", nil, app(&pGot))
			d.sns.Start("app", nil, app(&sGot))
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
			tuples := d.pns.RecordedTuples()
			var ops []pthread.Op
			for _, tu := range tuples {
				if tu.FTPid == waiter {
					ops = append(ops, tu.Op)
				}
				if tu.Op == pthread.OpCondResolve && tu.Outcome != row.outcome {
					t.Errorf("cond_resolve recorded outcome %d, want %d", tu.Outcome, row.outcome)
				}
			}
			if !slices.Equal(ops, row.want) {
				t.Errorf("waiter recorded %v, want %v", ops, row.want)
			}
			if wantGot := row.outcome != pthread.OutcomeTimedOut; pGot != wantGot || sGot != wantGot {
				t.Errorf("wait reported signaled %v on the primary, %v on the backup; want %v", pGot, sGot, wantGot)
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
// promoted side records live. At every cut the promoted side consumes what
// the dead primary consumed under the mutex_lock tuples it replayed, in the
// same order, then every remaining item exactly once; it counts no
// divergence, every thread returns, and once the run is quiet the one
// process left is the fork recorder's spill server, which stops with its
// kernel.
func TestCondVarPromotionAtEveryLogBoundary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := replication.DefaultConfig()
		cfg.DetShards = shards
		// One clean run times the transfers.
		var landed []sim.Time
		{
			var pOrder, sOrder []consumption
			var pDone, sDone bool
			d := newDuo(t, 5, cfg, true)
			d.log.OnDelivered(func() { landed = append(landed, d.sim.Now()) })
			d.pns.Start("app", nil, condVarApp(&pOrder, &pDone))
			d.sns.Start("app", nil, condVarApp(&sOrder, &sDone))
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if len(landed) < 10 {
			t.Fatalf("%d shards: only %d log transfers", shards, len(landed))
		}
		cuts := 0 // cuts that lost consumptions the primary had made
		for n := 1; n <= len(landed); n++ {
			for _, late := range []bool{false, true} {
				if late && (n == len(landed) || landed[n]-1 <= landed[n-1]) {
					continue
				}
				name := fmt.Sprintf("%d shards, transfer %d landing", shards, n)
				if late {
					name = fmt.Sprintf("%d shards, before transfer %d lands", shards, n+1)
				}
				if promoteAtBoundary(t, name, cfg, n, late, landed) {
					cuts++
				}
			}
		}
		t.Logf("%d shards: %d transfers, %d cuts", shards, len(landed), cuts)
		if cuts == 0 {
			t.Errorf("%d shards: no cut lost a consumption the primary had made", shards)
		}
	}
}

// promoteAtBoundary runs one cut of TestCondVarPromotionAtEveryLogBoundary
// and reports whether the primary had consumed beyond what its backup
// replayed.
func promoteAtBoundary(t *testing.T, name string, cfg replication.Config, n int, late bool, landed []sim.Time) bool {
	t.Helper()
	var pOrder, sOrder []consumption
	var pDone, sDone bool
	d := newDuo(t, 5, cfg, true)
	promote := func() {
		d.pk.Panic("injected failure", nil)
		d.sns.Replayer().Promote()
	}
	if late {
		d.sim.ScheduleAt(landed[n]-1, promote)
	} else {
		seen := 0
		d.log.OnDelivered(func() {
			if seen++; seen == n {
				promote()
			}
		})
	}
	d.pns.Start("app", nil, condVarApp(&pOrder, &pDone))
	d.sns.Start("app", nil, condVarApp(&sOrder, &sDone))
	if err := d.sim.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The replayed tuples are a prefix of the primary's log; its
	// mutex_lock tuples ordered the first held acquisitions.
	held := 0
	for _, tu := range d.pns.RecordedTuples()[:d.sns.ReplayStats().Sections] {
		if tu.Op == pthread.OpMutexLock {
			held++
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
	return k < len(pOrder)
}
