package replication_test

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/replication"
)

// TestSectionsAllocateNothing pins the det-section → recorder → ring →
// replayer-grant path at zero host allocations in steady state, on both
// replicas at once: the section's state lives in the thread, tuples and
// acks are plain words in pooled ring records, and every waiter is embedded
// in the task that parks. The one thing that grows is the history both
// sides retain for a rejoin: a window allocates exactly the byte chunks the
// two retained windows grew, plus a chunk table each time a window's chunk
// count passes a power of two. Each case runs an
// endless application on a primary/secondary pair, lets the free lists and
// queues reach their working size, then measures windows of virtual time
// holding hundreds of recorded and replayed sections. The applications pace
// themselves below the secondary's dispatch rate: with more than one det
// shard nothing else bounds the replay backlog, and with one the backlog
// waits in the log ring's delivered buffer — a queue that grows forever
// allocates a chunk per 512 messages forever.
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
		// A Cond.Wait / Signal round trip per item — the backup's replayer
		// applies the signal — a broadcast that finds nobody waiting and
		// returns before its section, a timed wait that expires, and a
		// reader-writer lock both ways.
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
				c.Broadcast(root.Task())
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
	// A garbage collection wakes runtime work that allocates on its own
	// goroutines (the scavenger's timer, the sudog caches it empties), and
	// the retained chunks are garbage enough to start one mid-window: the
	// count is the sections' alone with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
				for range 3 {
					var want int
					n := testing.AllocsPerRun(1, func() {
						h0 := [2]int{d.pns.RetainedChunks(), d.sns.RetainedChunks()}
						window()
						want = 0
						for i, c1 := range [2]int{d.pns.RetainedChunks(), d.sns.RetainedChunks()} {
							c0 := h0[i]
							want += c1 - c0 + bits.Len(uint(c1-1)) - bits.Len(uint(c0-1))
						}
					})
					if int(n) != want {
						t.Errorf("%d det shards: %.0f allocations per window, want %d for the retained histories' growth", shards, n, want)
					}
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

// TestRetainedHistoryAllocBytes pins what a retained tuple costs the host:
// both replicas keep the whole log for a rejoin, a tuple as a varint record
// in byte chunks of up to 16 KiB. Over ≥ 4 096 recorded and replayed
// sections at one det shard and at four, the bytes allocated stay within
// 16 B per tuple each side retained, plus one 16 KiB chunk of slack per side
// and its chunk table's growth (32 B per chunk, doubling) — a tuple kept as
// its seven words (56 B) would not.
func TestRetainedHistoryAllocBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	app := func(root *replication.Thread) {
		m := root.Lib().NewMutex()
		for {
			m.Lock(root.Task())
			m.Unlock(root.Task())
			root.Task().Compute(250 * time.Microsecond)
		}
	}
	for _, shards := range []int{1, 4} {
		cfg := replication.DefaultConfig()
		cfg.DetShards = shards
		d := newDuo(t, 1, cfg, true)
		d.launch(nil, app)
		if err := d.sim.RunFor(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		h0 := [2]int{d.pns.RetainedTuples(), d.sns.RetainedTuples()}
		s0 := d.sns.Stats().Sections
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for d.sns.Stats().Sections-s0 < 4096 {
			if err := d.sim.RunFor(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		bound := 0
		for i, ns := range [2]*replication.Namespace{d.pns, d.sns} {
			bound += 16*(ns.RetainedTuples()-h0[i]) + 16<<10 + 2*32*ns.RetainedChunks()
		}
		got := int(m1.TotalAlloc - m0.TotalAlloc)
		t.Logf("%d det shards: %d B for %d + %d retained tuples", shards, got, d.pns.RetainedTuples()-h0[0], d.sns.RetainedTuples()-h0[1])
		if got > bound {
			t.Errorf("%d det shards: %d sections allocated %d B, want <= %d (16 B per retained tuple per side)",
				shards, d.sns.Stats().Sections-s0, got, bound)
		}
		d.sim.Shutdown()
	}
}
