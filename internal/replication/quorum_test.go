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

// quorumTrio is the multireplica trio with an explicit commit quorum and
// a per-transfer delivery lag on backup2's log ring, so its receipt
// watermark trails backup1's by a fixed margin.
func quorumTrio(t *testing.T, seed int64, commitQuorum int, lag time.Duration) *trio {
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
	cfg.CommitQuorum = commitQuorum
	fabric := shm.NewFabric(s, pp.CrossLatency(b2))
	log1 := fabric.NewRing("log1", 0, cfg.LogRingBytes)
	log2 := fabric.NewRing("log2", 0, cfg.LogRingBytes)
	ack1 := fabric.NewRing("ack1", 1, 64<<10)
	ack2 := fabric.NewRing("ack2", 2, 64<<10)
	if lag > 0 {
		log2.SetChaosHook(func([]shm.Message) shm.ChaosVerdict {
			return shm.ChaosVerdict{Delay: lag}
		})
	}
	return &trio{
		sim: s, pk: pk, s1: s1, s2: s2,
		pns:  replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log1, log2}, []*shm.Ring{ack1, ack2}),
		sns1: replication.NewSecondary("ftns", s1, cfg, log1, ack1),
		sns2: replication.NewSecondary("ftns", s2, cfg, log2, ack2),
		logs: []*shm.Ring{log1, log2},
	}
}

// quorumRelease runs 300 lock sections on a trio and returns when the
// final OnStable callback released relative to when it was requested.
func quorumRelease(t *testing.T, tr *trio) time.Duration {
	t.Helper()
	var requested, released sim.Time
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
		t.Fatalf("release at %v, requested at %v", released, requested)
	}
	return time.Duration(released - requested)
}

// TestQuorumOneDropsLaggardFromCommitPath: with a 1-of-2-backups commit
// quorum, a 2ms delivery lag on backup2's log link must not appear in the
// output-commit wait — backup1's receipt alone stabilizes the log. The
// all-backups rule over the same links pays the full lag.
func TestQuorumOneDropsLaggardFromCommitPath(t *testing.T) {
	const lag = 2 * time.Millisecond
	wQ1 := quorumRelease(t, quorumTrio(t, 5, 1, lag))
	wAll := quorumRelease(t, quorumTrio(t, 5, 0, lag))
	if wQ1 >= lag {
		t.Errorf("quorum-1 commit wait %v still pays the laggard's %v lag", wQ1, lag)
	}
	if wAll < lag {
		t.Errorf("all-backups commit wait %v does not cover the laggard's %v lag", wAll, lag)
	}
}

// TestQuorumDegradesToAllOfTheLiving: a commit quorum larger than the
// surviving link count degrades to all-of-the-living rather than stalling
// output forever.
func TestQuorumDegradesToAllOfTheLiving(t *testing.T) {
	tr := quorumTrio(t, 6, 2, 0)
	var pCount, s1Count, s2Count int
	tr.pns.Start("app", nil, lockCounterApp(&pCount, 4, 300))
	tr.sns1.Start("app", nil, lockCounterApp(&s1Count, 4, 300))
	tr.sns2.Start("app", nil, lockCounterApp(&s2Count, 4, 300))
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
	if need := tr.pns.QuorumNeed(); need != 1 {
		t.Errorf("quorum need after losing a link = %d, want the 1 survivor", need)
	}
	wm := tr.pns.Watermarks()
	if len(wm) != 2 {
		t.Fatalf("watermark vector length = %d, want 2", len(wm))
	}
	if wm[1].Index != 1 || !wm[1].Dead {
		t.Errorf("dropped link watermark = %+v, want index 1 dead", wm[1])
	}
	if wm[0].Dead || wm[0].Watermark == 0 {
		t.Errorf("survivor watermark = %+v, want live with progress", wm[0])
	}
	if live := tr.pns.LiveBackups(); live != 1 {
		t.Errorf("live backups = %d, want 1", live)
	}
}
