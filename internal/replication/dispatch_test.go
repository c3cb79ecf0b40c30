package replication

import (
	"testing"
	"time"

	"repro/internal/pthread"
	"repro/internal/sim"
)

// replayBacklog boots a secondary alone, with a feeder playing the primary:
// at time zero it sends the environment and n tuples of one thread locking
// one mutex over and over, so the one-shard pull task starts on a backlog.
// It returns the namespace and the instants the pull task delivers each
// message, its dispatch cost paid; at each, delivered calls note.
func replayBacklog(t *testing.T, n int, note func()) (*benchPair, *Namespace, *[]sim.Time) {
	bp := newBenchPair(t)
	ns := NewSecondary("ftns", bp.sk, DefaultConfig(), bp.log, bp.acks)
	bp.sim.Spawn("feeder", func(p *sim.Proc) {
		bp.log.Send(p, envMessage(nil))
		for i := uint64(0); i < uint64(n); i++ {
			tu := Tuple{ThreadSeq: i, GlobalSeq: i, ObjSeq: i, FTPid: 1, Op: pthread.OpMutexLock, Obj: 1}
			bp.log.Send(p, tu.message())
		}
	})
	var delivered []sim.Time
	ln := ns.rep.lanes[0]
	paid := ln.paidK
	ln.paidK = func() {
		delivered = append(delivered, bp.sim.Now())
		note()
		paid()
	}
	return bp, ns, &delivered
}

// TestOneShardDispatchIsReplayDispatchCost: with a backlog at one det shard
// the pull task delivers one message per ReplayDispatchCost exactly — it
// computes again in the instant each dispatch ends, so it never leaves its
// core and pays no context switch between tuples (the §4.1 serial-dispatch
// bottleneck at its modeled rate).
func TestOneShardDispatchIsReplayDispatchCost(t *testing.T) {
	const n = 100
	bp, ns, delivered := replayBacklog(t, n, func() {})
	if err := bp.sim.Run(); err != nil {
		t.Fatal(err)
	}
	at := *delivered
	if len(at) != n+1 {
		t.Fatalf("delivered %d of %d messages", len(at), n+1)
	}
	want := ns.rep.cfg.ReplayDispatchCost
	for i := 1; i < len(at); i++ {
		if got := at[i].Sub(at[i-1]); got != want {
			t.Fatalf("message %d delivered %v after the one before, want ReplayDispatchCost = %v", i, got, want)
		}
	}
}

// TestGrantedSectionWakesOnce: a shadow thread parked for its turn when the
// grant lands is woken once, after the wake cost and the section's replay
// cost, where waking it and then letting it Busy the replay cost would
// switch it in twice — at the same instant the section ends either way. A
// ticker process keeps the loop busy, so a thread that slept inside its
// section would have to be switched back in.
func TestGrantedSectionWakesOnce(t *testing.T) {
	const n = 50
	var app *sim.Proc
	switches := 0
	var atGrant []int // the thread's switch count when each message is delivered
	bp, ns, delivered := replayBacklog(t, n, func() { atGrant = append(atGrant, switches) })
	bp.sim.Spawn("ticker", func(p *sim.Proc) {
		p.SetBackground(true)
		for {
			p.Sleep(time.Microsecond)
		}
	})
	bp.sim.OnSwitch = func(_ sim.Time, name string) {
		if app != nil && name == app.Name() {
			switches++
		}
	}
	type lock struct {
		at       sim.Time
		switches int
	}
	var locked []lock
	ns.Start("app", nil, func(th *Thread) {
		app = th.Task().Proc()
		mu := th.Lib().NewMutex()
		for i := 0; i < n; i++ {
			mu.Lock(th.Task())
			locked = append(locked, lock{th.Task().Now(), switches})
			mu.Unlock(th.Task())
		}
	})
	if err := bp.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ns.Stats(); st.Sections != n || st.Divergences != 0 || len(locked) != n {
		t.Fatalf("replayed %d of %d sections, %d locks returned, %d divergences", st.Sections, n, len(locked), st.Divergences)
	}
	// The thread is parked long before each tuple is delivered, so the
	// delivery grants it; the first delivered message is the environment.
	wake := bp.sk.Params().WakeBase + ns.rep.cfg.ReplaySectionCost
	for i, l := range locked {
		if granted := (*delivered)[i+1]; l.at != granted.Add(wake) {
			t.Errorf("section %d ended at %v, granted at %v: want WakeBase + ReplaySectionCost = %v later", i, l.at, granted, wake)
		}
		if got := l.switches - atGrant[i+1]; got != 1 {
			t.Errorf("section %d: the thread was switched in %d times between its grant and its section's end, want 1", i, got)
		}
	}
}
