package pthread

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
)

// cycles runs the simulation and returns the lock-order cycles lib
// recorded, checking that OnLockCycle saw each as it closed.
func cycles(t *testing.T, run func() error, lib *Lib) []*LockOrderError {
	t.Helper()
	var seen []*LockOrderError
	lib.OnLockCycle(func(e *LockOrderError) { seen = append(seen, e) })
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if got := lib.LockCycles(); !slices.Equal(got, seen) {
		t.Errorf("LockCycles %v, OnLockCycle saw %v", got, seen)
	}
	return lib.LockCycles()
}

// TestLockOrderCycleAcrossPhases: one task takes a then b, and another
// takes b then a — twice — 10 ms after the first let go. The orders never
// overlap, so no schedule of this run deadlocks, but the recorded graph
// has a → b and b → a: one cycle, reported once, naming both locks.
func TestLockOrderCycleAcrossPhases(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	a, b := lib.NewMutex(), lib.NewRWLock()
	k.Spawn("forward", func(tk *kernel.Task) {
		a.Lock(tk)
		b.WrLock(tk)
		b.WrUnlock(tk)
		a.Unlock(tk)
	})
	k.Spawn("reverse", func(tk *kernel.Task) {
		tk.Sleep(10 * time.Millisecond)
		for range 2 {
			b.RdLock(tk)
			a.Lock(tk)
			a.Unlock(tk)
			b.RdUnlock(tk)
		}
	})
	got := cycles(t, s.Run, lib)
	if len(got) != 1 {
		t.Fatalf("recorded %d cycles, want 1: %v", len(got), got)
	}
	var err error = got[0]
	var loe *LockOrderError
	want := fmt.Sprintf("cycle %d -> %d -> %d, closed by task \"reverse\"", b.ID(), a.ID(), b.ID())
	if !errors.As(err, &loe) || !slices.Equal(loe.Cycle, []uint64{b.ID(), a.ID(), b.ID()}) || !strings.Contains(err.Error(), want) {
		t.Errorf("recorded %q, want the %s", err, want)
	}
}

// TestLockOrderCondWaitReacquisition: a waiter takes cfg for reading
// under mu and waits on a condition of mu, holding cfg. Every acquisition
// the code writes is mu → cfg; the wake-up's hand-over of mu to the
// waiter, which still holds cfg, is cfg → mu. No schedule deadlocks — no
// writer ever comes — and the cycle is reported.
func TestLockOrderCondWaitReacquisition(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	mu, cfg, cond := lib.NewMutex(), lib.NewRWLock(), lib.NewCond()
	ready := false
	k.Spawn("waiter", func(tk *kernel.Task) {
		mu.Lock(tk)
		cfg.RdLock(tk)
		for !ready {
			cond.Wait(tk, mu)
		}
		mu.Unlock(tk)
		cfg.RdUnlock(tk)
	})
	k.Spawn("signaler", func(tk *kernel.Task) {
		tk.Sleep(time.Millisecond)
		mu.Lock(tk)
		ready = true
		cond.Signal(tk)
		mu.Unlock(tk)
	})
	got := cycles(t, s.Run, lib)
	if len(got) != 1 || !slices.Equal(got[0].Cycle, []uint64{cfg.ID(), mu.ID(), cfg.ID()}) || got[0].Task != "waiter" {
		t.Errorf("recorded %v, want the cycle %d -> %d -> %d closed for the waiter", got, cfg.ID(), mu.ID(), cfg.ID())
	}
}

// TestLockOrderTrylockFirstInversion: a successful try never waits, so it
// adds no edge into the lock it took: taking b then trying a, after a then
// b, is no cycle. The tried lock still joins the held set, so the lock
// taken under it gets its edge.
func TestLockOrderTrylockFirstInversion(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	a, b, c := lib.NewMutex(), lib.NewRWLock(), lib.NewMutex()
	k.Spawn("main", func(tk *kernel.Task) {
		a.Lock(tk)
		b.WrLock(tk)
		b.WrUnlock(tk)
		a.Unlock(tk)
		b.RdLock(tk)
		if !a.TryLock(tk) {
			t.Error("TryLock on a free mutex failed")
		}
		c.Lock(tk) // b → c and a → c
		c.Unlock(tk)
		a.Unlock(tk)
		b.RdUnlock(tk)
		if !b.TryWrLock(tk) {
			t.Error("TryWrLock on a free rwlock failed")
		}
		b.WrUnlock(tk)
	})
	if got := cycles(t, s.Run, lib); len(got) != 0 {
		t.Errorf("a trylock-first inversion recorded %v", got)
	}
	if !lib.order.edges[[2]uint64{a.ID(), c.ID()}] || lib.order.edges[[2]uint64{b.ID(), a.ID()}] {
		t.Errorf("edges %v: want a → c, and no b → a", lib.order.edges)
	}
}

// TestLockOrderRetakeIsAOneLockCycle: a task taking a lock it holds, here
// for reading twice, is a one-lock cycle, reported once.
func TestLockOrderRetakeIsAOneLockCycle(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	rw := lib.NewRWLock()
	k.Spawn("main", func(tk *kernel.Task) {
		for range 2 {
			rw.RdLock(tk)
			rw.RdLock(tk)
			rw.RdUnlock(tk)
			rw.RdUnlock(tk)
		}
	})
	got := cycles(t, s.Run, lib)
	if len(got) != 1 || !slices.Equal(got[0].Cycle, []uint64{rw.ID(), rw.ID()}) {
		t.Errorf("recorded %v, want the one-lock cycle %d -> %d", got, rw.ID(), rw.ID())
	}
}

// TestLockOrderKnownEdgeAllocatesNothing: once an edge is in the graph and
// the held set has grown, seeing the edge again allocates nothing.
func TestLockOrderKnownEdgeAllocatesNothing(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	a, b := lib.NewMutex(), lib.NewRWLock()
	allocs := -1.0
	k.Spawn("main", func(tk *kernel.Task) {
		nest := func() {
			a.Lock(tk)
			b.WrLock(tk)
			b.WrUnlock(tk)
			a.Unlock(tk)
		}
		nest()
		allocs = testing.AllocsPerRun(100, nest)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a known edge costs %v allocs, want 0", allocs)
	}
}
