package replication

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// The replication layer's micro-benchmarks (make bench-replication): host
// ns and allocations per deterministic section on each side of the log
// ring. All read 0 allocs/op — section state lives in the thread, tuples
// are words in pooled ring records, waiters are embedded in the task that
// parks (DESIGN.md §21). TestSectionsAllocateNothing pins the count.

// benchPair boots a primary and a secondary kernel and the log and ack
// rings between them.
type benchPair struct {
	sim       *sim.Simulation
	pk, sk    *kernel.Kernel
	log, acks *shm.Ring
}

func newBenchPair(b *testing.B) *benchPair {
	b.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	pp, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		b.Fatal(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		b.Fatal(err)
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		b.Fatal(err)
	}
	f := shm.NewFabric(s, pp.CrossLatency(sp))
	return &benchPair{sim: s, pk: pk, sk: sk,
		log: f.NewRing("ftns.log", 0, 1<<20), acks: f.NewRing("ftns.acks", 1, 64<<10)}
}

// sink receives and discards everything a ring carries.
func (bp *benchPair) sink(r *shm.Ring) {
	bp.sim.Spawn("sink", func(p *sim.Proc) {
		var buf []shm.Message
		for {
			buf = r.RecvBatchInto(p, buf[:0], 0)
		}
	})
}

// lockLoop takes and releases n locks, round-robin over the given number of
// mutexes: one deterministic section each.
func lockLoop(n, mutexes int, done *int) func(*Thread) {
	return func(th *Thread) {
		mus := make([]*pthread.Mutex, mutexes)
		for i := range mus {
			mus[i] = th.Lib().NewMutex()
		}
		for i := 0; i < n; i++ {
			mu := mus[i%mutexes]
			mu.Lock(th.Task())
			mu.Unlock(th.Task())
		}
		*done++
	}
}

func (bp *benchPair) run(b *testing.B, done *int, want int) {
	b.ReportAllocs()
	b.ResetTimer()
	if err := bp.sim.Run(); err != nil || *done != want {
		b.Fatalf("%d of %d applications finished: %v", *done, want, err)
	}
	b.StopTimer()
	bp.sim.Shutdown()
}

// BenchmarkRecordedSection is the primary's half: shard lock, section cost,
// tuple into the link's open span, commit every BatchTuples.
func BenchmarkRecordedSection(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			bp := newBenchPair(b)
			cfg := DefaultConfig()
			cfg.DetShards = shards
			ns := NewPrimary("ftns", bp.pk, cfg, []*shm.Ring{bp.log}, []*shm.Ring{bp.acks})
			bp.sink(bp.log)
			done := 0
			ns.Start("app", nil, lockLoop(b.N, shards, &done))
			bp.run(b, &done, 1)
		})
	}
}

// BenchmarkReplayGrant is the secondary's half: receive, route, dispatch,
// park → grant → section done, cumulative ack. A feeder plays the primary,
// streaming the tuples of a thread that locks one mutex over and over.
func BenchmarkReplayGrant(b *testing.B) {
	bp := newBenchPair(b)
	ns := NewSecondary("ftns", bp.sk, DefaultConfig(), bp.log, bp.acks)
	bp.sink(bp.acks)
	bp.sim.Spawn("feeder", func(p *sim.Proc) {
		bp.log.Send(p, envMessage(nil))
		for i := uint64(0); i < uint64(b.N); i++ {
			tu := Tuple{ThreadSeq: i, GlobalSeq: i, ObjSeq: i, FTPid: 1, Op: pthread.OpMutexLock, Obj: 1}
			bp.log.Send(p, tu.message(0))
		}
	})
	done := 0
	ns.Start("app", nil, lockLoop(b.N, 1, &done))
	bp.run(b, &done, 1)
	if st := ns.Stats(); st.Divergences != 0 || st.Sections != uint64(b.N) {
		b.Fatalf("replayed %d of %d sections, %d divergences", st.Sections, b.N, st.Divergences)
	}
}

// BenchmarkSectionRoundTrip is both halves with the real ring between them:
// a primary and one backup running the same application.
func BenchmarkSectionRoundTrip(b *testing.B) {
	bp := newBenchPair(b)
	cfg := DefaultConfig()
	pns := NewPrimary("ftns", bp.pk, cfg, []*shm.Ring{bp.log}, []*shm.Ring{bp.acks})
	sns := NewSecondary("ftns", bp.sk, cfg, bp.log, bp.acks)
	done := 0
	pns.Start("app", nil, lockLoop(b.N, 1, &done))
	sns.Start("app", nil, lockLoop(b.N, 1, &done))
	bp.run(b, &done, 2)
	if st := sns.Stats(); st.Divergences != 0 || st.Sections != uint64(b.N) {
		b.Fatalf("replayed %d of %d sections, %d divergences", st.Sections, b.N, st.Divergences)
	}
}
