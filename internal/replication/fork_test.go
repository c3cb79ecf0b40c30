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

// TestPromotionHandsHistoryToFork: a backup promoted mid-run hands its
// replayed history to the fork and keeps none of it — one copy of the log
// per survivor, not two — and the hand-over loses nothing: the
// fork's history is the environment message plus one tuple per section
// replayed or recorded since, the divergences the backup counted while it
// replayed (one, planted before the kill) still read through the fork's
// Stats, and a fresh backup rejoined to the fork replays it from the first
// section to the fork's frontier without a mismatch.
func TestPromotionHandsHistoryToFork(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	boot := func(name string, nodes ...int) *kernel.Kernel {
		part, err := m.NewPartition(name, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Boot(part, kernel.Config{Name: name, Params: kp})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	pk, sk, rk := boot("primary", 0, 1, 2), boot("backup", 3, 4), boot("rejoiner", 5, 6)
	cfg := replication.DefaultConfig()
	fabric := shm.NewFabric(s, time.Microsecond)
	rings := func(sfx string, src int) (log, acks *shm.Ring) {
		return fabric.NewRing("ftns.log"+sfx, src, cfg.LogRingBytes), fabric.NewRing("ftns.acks"+sfx, src+1, 64<<10)
	}
	log, acks := rings("", 0)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)
	const threads, iters = 4, 1000
	var pCount, sCount, rCount int
	pns.Start("app", nil, lockCounterApp(&pCount, threads, iters))
	sns.Start("app", nil, lockCounterApp(&sCount, threads, iters))

	var rns *replication.Namespace
	caughtUp := false
	s.Schedule(30*time.Millisecond, func() {
		if sns.RetainedTuples() == 0 {
			t.Error("backup retained nothing before the kill")
		}
		sns.PlantDivergence()
		pk.Panic("injected failure", nil)
		sns.Replayer().Promote()
	})
	s.Schedule(60*time.Millisecond, func() {
		if !sns.Recording() {
			t.Fatal("promotion did not fork a recorder")
		}
		rlog, racks := rings(".g1", 2)
		rns = replication.NewSecondary("ftns", rk, cfg, rlog, racks)
		sns.AddReplica(rlog, racks, func() { caughtUp = true })
		rns.Start("app", nil, lockCounterApp(&rCount, threads, iters))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sCount != threads*iters || pCount == threads*iters {
		t.Fatalf("survivor finished %d of %d increments, dead primary %d: the kill must land mid-run", sCount, threads*iters, pCount)
	}
	if n, b := sns.ReplayRetained(); n != 0 || b != 0 {
		t.Errorf("promoted replayer still retains %d tuples / %d bytes after the fork copied them", n, b)
	}
	if got, want := sns.RetainedTuples(), 1+int(sns.SeqGlobal()); got != want {
		t.Errorf("fork retains %d messages, want %d: the environment plus one tuple per section replayed or recorded", got, want)
	}
	if d := sns.Stats().Divergences; d != 1 {
		t.Errorf("promoted replica reports %d divergences, want the 1 it counted while replaying", d)
	}
	if !caughtUp || rCount != threads*iters || rns.ReplayHead() != sns.SeqGlobal() || rns.Stats().Divergences != 0 {
		t.Errorf("rejoined backup: caught up = %v, %d of %d increments, replay head %d of %d, %d divergences",
			caughtUp, rCount, threads*iters, rns.ReplayHead(), sns.SeqGlobal(), rns.Stats().Divergences)
	}
}
