package replication_test

import (
	"testing"
	"time"

	"repro/internal/replication"
)

// TestSectionsAllocateNothing pins the det-section → recorder → ring →
// replayer-grant path at zero host allocations in steady state, on both
// replicas at once: the section's state lives in the thread, tuples and
// acks are plain words in pooled ring records, and every waiter is embedded
// in the task that parks. Each case runs an endless application on a
// primary/secondary pair, lets the free lists and queues reach their
// working size, then measures windows of virtual time holding hundreds of
// recorded and replayed sections. The applications pace themselves below
// the secondary's dispatch rate: with more than one det shard nothing else
// bounds the replay backlog, and with one the backlog waits in the log
// ring's delivered buffer — a queue that grows forever allocates a chunk
// per 512 messages forever.
func TestSectionsAllocateNothing(t *testing.T) {
	spin := func(th *replication.Thread) { th.Task().Compute(250 * time.Microsecond) }
	cases := map[string]func(root *replication.Thread){
		// One thread, one mutex: recorded section, replayed section
		// (park → grant → done), nothing contended.
		"uncontended": func(root *replication.Thread) {
			m := root.Lib().NewMutex()
			for {
				m.Lock(root.Task())
				m.TryLock(root.Task())
				m.Unlock(root.Task())
				spin(root)
			}
		},
		// Three threads holding one mutex across a compute burst: most
		// Lock sections queue a waiter and park it, on the det-section
		// lock's wait queue as well as the mutex's own.
		"contended": func(root *replication.Thread) {
			m := root.Lib().NewMutex()
			work := func(th *replication.Thread) {
				for {
					m.Lock(th.Task())
					spin(th)
					m.Unlock(th.Task())
				}
			}
			root.NS().SpawnThread(root, "w", work)
			root.NS().SpawnThread(root, "w", work)
			work(root)
		},
		// A Cond.Wait / Signal round trip per item, plus a timed wait that
		// expires, and a reader-writer lock both ways.
		"condvar": func(root *replication.Thread) {
			lib := root.Lib()
			m, c, rw := lib.NewMutex(), lib.NewCond(), lib.NewRWLock()
			queued := 0
			root.NS().SpawnThread(root, "consumer", func(th *replication.Thread) {
				for {
					m.Lock(th.Task())
					for queued == 0 {
						c.Wait(th.Task(), m)
					}
					queued--
					m.Unlock(th.Task())
					rw.RdLock(th.Task())
					spin(th)
					rw.RdUnlock(th.Task())
				}
			})
			for {
				m.Lock(root.Task())
				queued++
				c.Signal(root.Task())
				c.TimedWait(root.Task(), m, 5*time.Microsecond)
				m.Unlock(root.Task())
				rw.WrLock(root.Task())
				spin(root)
				rw.WrUnlock(root.Task())
				// A dozen sections a round: at one shard's dispatch cost
				// the round needs this pause to stay below the replay rate.
				root.Task().Sleep(time.Millisecond)
			}
		},
	}
	for name, app := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := replication.DefaultConfig()
			cfg.PanicOnDivergence = true
			for _, shards := range []int{1, 4} {
				cfg.DetShards = shards
				d := newDuo(t, 1, cfg, true)
				d.launch(nil, app)
				window := func() {
					if err := d.sim.RunFor(100 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				window()
				before := d.sns.Stats().Sections
				if n := testing.AllocsPerRun(5, window); n != 0 {
					t.Errorf("%d det shards: %.1f allocations per window, want 0", shards, n)
				}
				if got := d.sns.Stats().Sections - before; got < 500 || d.sns.Stats().Divergences != 0 {
					t.Errorf("%d det shards: %d sections replayed in the measured windows, %d divergences",
						shards, got, d.sns.Stats().Divergences)
				}
				d.sim.Shutdown()
			}
		})
	}
}
