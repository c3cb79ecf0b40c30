package replication_test

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// trio is a primary plus TWO backup replicas — the §6 extension beyond the
// paper's two-replica prototype, using three NUMA partitions of the same
// machine and a broadcast log.
type trio struct {
	sim        *sim.Simulation
	pk, s1, s2 *kernel.Kernel
	pns        *replication.Namespace
	sns1, sns2 *replication.Namespace
	logs       []*shm.Ring
}

func newTrio(t *testing.T, seed int64) *trio {
	t.Helper()
	s := sim.New(seed)
	m := hw.New(s, hw.Opteron6376x4())
	pp, _ := m.NewPartition("primary", 0, 1, 2)
	b1, _ := m.NewPartition("backup1", 3, 4)
	b2, _ := m.NewPartition("backup2", 5, 6)
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := kernel.Boot(b1, kernel.Config{Name: "backup1", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := kernel.Boot(b2, kernel.Config{Name: "backup2", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	cfg := replication.DefaultConfig()
	fabric := shm.NewFabric(s, pp.CrossLatency(b2))
	log1 := fabric.NewRing("log1", 0, cfg.LogRingBytes)
	log2 := fabric.NewRing("log2", 0, cfg.LogRingBytes)
	ack1 := fabric.NewRing("ack1", 1, 64<<10)
	ack2 := fabric.NewRing("ack2", 2, 64<<10)
	return &trio{
		sim: s, pk: pk, s1: s1, s2: s2,
		pns:  replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log1, log2}, []*shm.Ring{ack1, ack2}),
		sns1: replication.NewSecondary("ftns", s1, cfg, log1, ack1),
		sns2: replication.NewSecondary("ftns", s2, cfg, log2, ack2),
		logs: []*shm.Ring{log1, log2},
	}
}

func TestThreeReplicaReplayIdentical(t *testing.T) {
	tr := newTrio(t, 1)
	var pOrder, s1Order, s2Order []int
	tr.pns.Start("app", nil, lockOrderApp(&pOrder, 5, 12))
	tr.sns1.Start("app", nil, lockOrderApp(&s1Order, 5, 12))
	tr.sns2.Start("app", nil, lockOrderApp(&s2Order, 5, 12))
	if err := tr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pOrder) != 60 || len(s1Order) != 60 || len(s2Order) != 60 {
		t.Fatalf("lengths %d/%d/%d, want 60 each", len(pOrder), len(s1Order), len(s2Order))
	}
	for i := range pOrder {
		if s1Order[i] != pOrder[i] || s2Order[i] != pOrder[i] {
			t.Fatalf("replicas diverged at %d: %d / %d / %d", i, pOrder[i], s1Order[i], s2Order[i])
		}
	}
	if d := tr.sns1.Stats().Divergences + tr.sns2.Stats().Divergences; d != 0 {
		t.Errorf("%d divergences", d)
	}
}

func TestThreeReplicaOutputCommitWaitsForSlowest(t *testing.T) {
	tr := newTrio(t, 2)
	// Make backup2's replay very slow and its ring tiny, so its receipt
	// watermark (not backup1's) gates output stability.
	var released, requested sim.Time
	tr.pns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		for i := 0; i < 300; i++ {
			m.Lock(root.Task())
			m.Unlock(root.Task())
		}
		requested = root.Task().Now()
		root.NS().OnStable(func() { released = tr.sim.Now() })
	})
	app := func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		for i := 0; i < 300; i++ {
			m.Lock(root.Task())
			m.Unlock(root.Task())
		}
	}
	tr.sns1.Start("app", nil, app)
	tr.sns2.Start("app", nil, app)
	if err := tr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if released == 0 || released < requested {
		t.Errorf("release at %v, requested at %v", released, requested)
	}
}

func TestBackupDeathDegradesGracefully(t *testing.T) {
	tr := newTrio(t, 3)
	var pCount, s1Count, s2Count int
	tr.pns.Start("app", nil, lockCounterApp(&pCount, 4, 300))
	tr.sns1.Start("app", nil, lockCounterApp(&s1Count, 4, 300))
	tr.sns2.Start("app", nil, lockCounterApp(&s2Count, 4, 300))
	// Backup2 dies mid-run; the primary drops it and keeps replicating to
	// backup1 only — it does NOT go live.
	tr.sim.Schedule(10*time.Millisecond, func() {
		tr.s2.Panic("injected", nil)
		tr.pns.DropReplica(1)
	})
	if err := tr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pCount != 1200 || s1Count != 1200 {
		t.Fatalf("primary=%d backup1=%d, want 1200 each", pCount, s1Count)
	}
	if tr.pns.Role() != replication.RolePrimary {
		t.Errorf("primary role = %v, want still primary (one backup remains)", tr.pns.Role())
	}
	if d := tr.sns1.Stats().Divergences; d != 0 {
		t.Errorf("%d divergences on the surviving backup", d)
	}

	// Now the last backup dies too: the primary must go live.
	tr.s1.Panic("injected", nil)
	tr.pns.DropReplica(0)
	if tr.pns.Role() != replication.RoleLive {
		t.Errorf("primary role = %v after losing all backups, want live", tr.pns.Role())
	}
}

// TestStrictCommitCoversAllBackupsAtRelease is the batching acceptance
// check for strict output commit: when an onStable callback fires, every
// live backup's receipt watermark (the delivered-payload count of its log
// ring) must already cover every tuple flushed so far — batching included
// (newTrio runs the default config, BatchTuples=8).
func TestStrictCommitCoversAllBackupsAtRelease(t *testing.T) {
	tr := newTrio(t, 7)
	fired := 0
	tr.pns.Start("app", nil, func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		for i := 0; i < 100; i++ {
			m.Lock(root.Task())
			m.Unlock(root.Task())
			if i%10 == 9 {
				sent := tr.pns.Stats().LogMessages
				root.NS().OnStable(func() {
					fired++
					for b, log := range tr.logs {
						if uint64(log.Delivered()) < sent {
							t.Errorf("onStable fired with backup %d at watermark %d < %d flushed tuples",
								b, log.Delivered(), sent)
						}
					}
				})
			}
		}
	})
	app := func(root *replication.Thread) {
		lib := root.Lib()
		m := lib.NewMutex()
		for i := 0; i < 100; i++ {
			m.Lock(root.Task())
			m.Unlock(root.Task())
		}
	}
	tr.sns1.Start("app", nil, app)
	tr.sns2.Start("app", nil, app)
	if err := tr.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("%d of 10 onStable callbacks fired", fired)
	}
	if d1, d2 := tr.sns1.Stats().Divergences, tr.sns2.Stats().Divergences; d1 != 0 || d2 != 0 {
		t.Errorf("divergences %d/%d", d1, d2)
	}
}
