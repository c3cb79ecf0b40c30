package pthread

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func bootLib(t *testing.T, seed int64) (*sim.Simulation, *kernel.Kernel, *Lib) {
	t.Helper()
	s := sim.New(seed)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("p", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := kernel.DefaultParams()
	params.IdleWakeMin, params.IdleWakeMax = 0, 0 // deterministic timings for tests
	k, err := kernel.Boot(part, kernel.Config{Name: "k", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return s, k, NewLib(k, nil)
}

func TestMutexExclusion(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	inCS := 0
	maxCS := 0
	count := 0
	for i := 0; i < 8; i++ {
		k.Spawn("worker", func(tk *kernel.Task) {
			for j := 0; j < 10; j++ {
				m.Lock(tk)
				inCS++
				if inCS > maxCS {
					maxCS = inCS
				}
				tk.Compute(100 * time.Microsecond)
				count++
				inCS--
				m.Unlock(tk)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxCS != 1 {
		t.Errorf("max concurrent critical sections = %d, want 1", maxCS)
	}
	if count != 80 {
		t.Errorf("count = %d, want 80", count)
	}
	if m.Locked() {
		t.Error("mutex still locked at end")
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	var order []int
	k.Spawn("holder", func(tk *kernel.Task) {
		m.Lock(tk)
		tk.Sleep(10 * time.Millisecond) // let waiters queue in index order
		m.Unlock(tk)
	})
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("waiter", func(tk *kernel.Task) {
			tk.Sleep(time.Duration(i+1) * time.Millisecond)
			m.Lock(tk)
			order = append(order, i)
			m.Unlock(tk)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order %v, want FIFO", order)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	k.Spawn("main", func(tk *kernel.Task) {
		if !m.TryLock(tk) {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock(tk) {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock(tk)
		if !m.TryLock(tk) {
			t.Error("TryLock after unlock failed")
		}
		m.Unlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// replayDet replays every try operation with one recorded outcome.
type replayDet struct {
	Passthrough
	out uint64
}

func (d replayDet) Replayed(*kernel.Task) (uint64, bool) { return d.out, true }

// TestTryReplaysTheRecordedOutcome: a replaying side's try operations act
// on the recorded outcome, not on the object here. A trylock the primary won
// while the holder here has not unlocked yet waits for that unlock, and one
// the primary lost fails on a free object, for the mutex and both rwlock
// tries alike.
func TestTryReplaysTheRecordedOutcome(t *testing.T) {
	type lock struct {
		take, drop func(*kernel.Task)
		try        func(*kernel.Task) bool
	}
	newLocks := func(lib *Lib) []lock {
		m, rw := lib.NewMutex(), lib.NewRWLock()
		return []lock{
			{m.Lock, m.Unlock, m.TryLock},
			{rw.WrLock, rw.WrUnlock, rw.TryWrLock},
			{rw.WrLock, rw.WrUnlock, rw.TryRdLock},
		}
	}
	for i := range 3 {
		s, k, _ := bootLib(t, 1)
		won := newLocks(NewLib(k, replayDet{out: 1}))[i]
		var got []string
		k.Spawn("holder", func(tk *kernel.Task) {
			won.take(tk)
			tk.Sleep(time.Millisecond)
			got = append(got, "unlock")
			won.drop(tk)
		})
		k.Spawn("trier", func(tk *kernel.Task) {
			tk.Sleep(100 * time.Microsecond)
			got = append(got, fmt.Sprint("try ", won.try(tk)))
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []string{"unlock", "try true"}; !reflect.DeepEqual(got, want) {
			t.Errorf("lock %d: a won try on a held lock ran %v, want %v", i, got, want)
		}
		s, k, _ = bootLib(t, 1)
		lost := newLocks(NewLib(k, replayDet{out: 0}))[i]
		k.Spawn("trier", func(tk *kernel.Task) {
			if lost.try(tk) {
				t.Errorf("lock %d: a lost try acquired a free lock", i)
			}
			lost.take(tk) // free still: a lost try took nothing
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	k.Spawn("a", func(tk *kernel.Task) {
		m.Lock(tk)
		tk.Sleep(10 * time.Millisecond)
		m.Unlock(tk)
	})
	k.Spawn("b", func(tk *kernel.Task) {
		tk.Sleep(time.Millisecond)
		m.Unlock(tk) // not the owner: must panic
	})
	defer func() {
		if recover() == nil {
			t.Error("unlock by non-owner did not panic")
		}
	}()
	_ = s.Run()
}

func TestCondWaitSignal(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	c := lib.NewCond()
	queue := 0
	consumed := 0
	for i := 0; i < 3; i++ {
		k.Spawn("consumer", func(tk *kernel.Task) {
			m.Lock(tk)
			for queue == 0 {
				c.Wait(tk, m)
			}
			queue--
			consumed++
			m.Unlock(tk)
		})
	}
	k.Spawn("producer", func(tk *kernel.Task) {
		for i := 0; i < 3; i++ {
			tk.Sleep(time.Millisecond)
			m.Lock(tk)
			queue++
			c.Signal(tk)
			m.Unlock(tk)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if consumed != 3 {
		t.Errorf("consumed = %d, want 3", consumed)
	}
	if c.Waiters() != 0 {
		t.Errorf("cond still has %d waiters", c.Waiters())
	}
}

func TestCondBroadcast(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	c := lib.NewCond()
	ready := false
	woken := 0
	for i := 0; i < 6; i++ {
		k.Spawn("waiter", func(tk *kernel.Task) {
			m.Lock(tk)
			for !ready {
				c.Wait(tk, m)
			}
			woken++
			m.Unlock(tk)
		})
	}
	k.Spawn("broadcaster", func(tk *kernel.Task) {
		tk.Sleep(5 * time.Millisecond)
		m.Lock(tk)
		ready = true
		c.Broadcast(tk)
		m.Unlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 6 {
		t.Errorf("woken = %d, want 6", woken)
	}
}

func TestCondTimedWaitTimeout(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	c := lib.NewCond()
	var signaled bool
	var wokeAt sim.Time
	k.Spawn("waiter", func(tk *kernel.Task) {
		m.Lock(tk)
		signaled = c.TimedWait(tk, m, 5*time.Millisecond)
		wokeAt = tk.Now()
		m.Unlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if signaled {
		t.Error("TimedWait reported signaled, want timeout")
	}
	if wokeAt < sim.Time(5*time.Millisecond) || wokeAt > sim.Time(6*time.Millisecond) {
		t.Errorf("woke at %v, want ~5ms", wokeAt)
	}
	if c.Waiters() != 0 {
		t.Error("timed-out waiter still enqueued")
	}
}

func TestCondTimedWaitSignaledInTime(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	c := lib.NewCond()
	var signaled bool
	k.Spawn("waiter", func(tk *kernel.Task) {
		m.Lock(tk)
		signaled = c.TimedWait(tk, m, time.Hour)
		m.Unlock(tk)
	})
	k.Spawn("signaler", func(tk *kernel.Task) {
		tk.Sleep(2 * time.Millisecond)
		m.Lock(tk)
		c.Signal(tk)
		m.Unlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled {
		t.Error("TimedWait reported timeout, want signaled")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending (timer not cancelled?)", s.Pending())
	}
}

// timeoutLog is a Det that counts the cond_timeout sections entered.
type timeoutLog struct {
	Passthrough
	timeouts int
}

func (d *timeoutLog) Enter(_ *kernel.Task, op Op, _ uint64) {
	if op == OpCondTimeout {
		d.timeouts++
	}
}

// TestCondWakeHandsOverMutex pins wait morphing: the wake-up that dequeues
// a waiter, timed or not, hands it the mutex, inside the wake-up's own
// call. A free mutex goes to the waiter at once; a held one queues it FIFO
// behind the tasks already waiting, and Unlock grants it in turn. A
// broadcast queues every waiter in wait order. A timed waiter whose timer
// fired just before the wake-up — its thread not yet running its timeout —
// is handed the held mutex all the same: it owns the mutex once, after the
// holder's Unlock, and records no cond_timeout. No run leaves a timer
// pending.
func TestCondWakeHandsOverMutex(t *testing.T) {
	type run struct {
		order    []string // mutex acquisitions, in order
		owner    string   // the mutex's owner right after the wake-up
		queued   int      // the tasks queued for the mutex right after it
		timeouts int      // cond_timeout sections entered
	}
	// wakeAfter runs waiters, one every millisecond from 1 ms, each taking
	// m and waiting on c (timed if timeout >= 0), then the wake-up at
	// 10 ms. If hold, the waker takes m at 10 ms, wakes at 11 ms and
	// releases m at 12 ms, and a contender asks for m at 10.5 ms.
	wakeAfter := func(t *testing.T, waiters int, timeout time.Duration, hold, broadcast bool) run {
		s, k, _ := bootLib(t, 1)
		var det timeoutLog
		lib := NewLib(k, &det)
		m, c := lib.NewMutex(), lib.NewCond()
		var r run
		acquired := func(tk *kernel.Task) { r.order = append(r.order, tk.Name()) }
		for i := range waiters {
			k.Spawn(fmt.Sprintf("waiter%d", i), func(tk *kernel.Task) {
				tk.Sleep(time.Duration(i+1) * time.Millisecond)
				m.Lock(tk)
				if timeout < 0 {
					c.Wait(tk, m)
				} else {
					c.TimedWait(tk, m, timeout)
				}
				acquired(tk)
				m.Unlock(tk)
			})
		}
		k.Spawn("waker", func(tk *kernel.Task) {
			tk.Sleep(10 * time.Millisecond)
			if hold {
				m.Lock(tk)
				acquired(tk)
				tk.Sleep(time.Millisecond)
			}
			if broadcast {
				c.Broadcast(tk)
			} else {
				c.Signal(tk)
			}
			if o := m.Owner(); o != nil {
				r.owner = o.Name()
			}
			r.queued = len(m.waiters)
			if hold {
				tk.Sleep(time.Millisecond)
				m.Unlock(tk)
			}
		})
		if hold {
			k.Spawn("contender", func(tk *kernel.Task) {
				tk.Sleep(10*time.Millisecond + 500*time.Microsecond)
				m.Lock(tk)
				acquired(tk)
				m.Unlock(tk)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Locked() || c.Waiters() != 0 || s.Pending() != 0 {
			t.Errorf("run ended with the mutex locked %v, %d condition waiters, %d events pending", m.Locked(), c.Waiters(), s.Pending())
		}
		r.timeouts = det.timeouts
		return r
	}
	for _, tc := range []struct {
		name      string
		waiters   int
		timeout   time.Duration
		hold      bool
		broadcast bool
		want      run
	}{
		{"free mutex goes to the waiter", 1, -1, false, false, run{[]string{"waiter0"}, "waiter0", 0, 0}},
		{"contender queued first goes first", 1, -1, true, false, run{[]string{"waker", "contender", "waiter0"}, "waker", 2, 0}},
		{"broadcast queues every waiter FIFO", 3, -1, true, true, run{[]string{"waker", "contender", "waiter0", "waiter1", "waiter2"}, "waker", 4, 0}},
		{"timed waiter is handed the mutex", 1, time.Hour, false, false, run{[]string{"waiter0"}, "waiter0", 0, 0}},
		// waiter0's wait starts at 1.0004 ms and the signal lands at
		// 11.0004 ms: its timer fires 1 µs before, and the thread it grants
		// resumes a WakeBase later.
		{"timer fired, signal hands the held mutex first", 1, 10*time.Millisecond - time.Microsecond, true, false,
			run{[]string{"waker", "contender", "waiter0"}, "waker", 2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := wakeAfter(t, tc.waiters, tc.timeout, tc.hold, tc.broadcast); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestCondSignalNoWaiters(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	m := lib.NewMutex()
	c := lib.NewCond()
	k.Spawn("signaler", func(tk *kernel.Task) {
		m.Lock(tk)
		c.Signal(tk) // must not panic or wake anything
		c.Broadcast(tk)
		m.Unlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRWLockConcurrentReaders(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	rw := lib.NewRWLock()
	maxReaders := 0
	for i := 0; i < 4; i++ {
		k.Spawn("reader", func(tk *kernel.Task) {
			rw.RdLock(tk)
			if rw.Readers() > maxReaders {
				maxReaders = rw.Readers()
			}
			tk.Sleep(10 * time.Millisecond)
			rw.RdUnlock(tk)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxReaders != 4 {
		t.Errorf("max concurrent readers = %d, want 4", maxReaders)
	}
}

func TestRWLockWriterExclusion(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	rw := lib.NewRWLock()
	var events []string
	k.Spawn("writer", func(tk *kernel.Task) {
		rw.WrLock(tk)
		events = append(events, "w-in")
		tk.Sleep(10 * time.Millisecond)
		events = append(events, "w-out")
		rw.WrUnlock(tk)
	})
	k.Spawn("reader", func(tk *kernel.Task) {
		tk.Sleep(time.Millisecond)
		rw.RdLock(tk)
		events = append(events, "r-in")
		rw.RdUnlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w-in", "w-out", "r-in"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestRWLockWriterNotStarved(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	rw := lib.NewRWLock()
	var order []string
	k.Spawn("r1", func(tk *kernel.Task) {
		rw.RdLock(tk)
		tk.Sleep(10 * time.Millisecond)
		rw.RdUnlock(tk)
	})
	k.Spawn("writer", func(tk *kernel.Task) {
		tk.Sleep(time.Millisecond)
		rw.WrLock(tk)
		order = append(order, "w")
		rw.WrUnlock(tk)
	})
	// r2 arrives after the writer queued: it must wait behind the writer.
	k.Spawn("r2", func(tk *kernel.Task) {
		tk.Sleep(2 * time.Millisecond)
		rw.RdLock(tk)
		order = append(order, "r2")
		rw.RdUnlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "w" || order[1] != "r2" {
		t.Errorf("order = %v, want [w r2]", order)
	}
}

func TestRWLockTryVariants(t *testing.T) {
	s, k, lib := bootLib(t, 1)
	rw := lib.NewRWLock()
	k.Spawn("main", func(tk *kernel.Task) {
		if !rw.TryRdLock(tk) {
			t.Error("TryRdLock on free lock failed")
		}
		if rw.TryWrLock(tk) {
			t.Error("TryWrLock with active reader succeeded")
		}
		if !rw.TryRdLock(tk) {
			t.Error("second TryRdLock failed")
		}
		rw.RdUnlock(tk)
		rw.RdUnlock(tk)
		if !rw.TryWrLock(tk) {
			t.Error("TryWrLock on free lock failed")
		}
		if rw.TryRdLock(tk) {
			t.Error("TryRdLock with active writer succeeded")
		}
		rw.WrUnlock(tk)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMutexExclusionManySeeds property-tests mutual exclusion and progress
// across random schedules induced by different seeds and idle-wake noise.
func TestMutexExclusionManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s, k, lib := bootLib(t, seed)
		m := lib.NewMutex()
		c := lib.NewCond()
		inCS, done := 0, 0
		for i := 0; i < 6; i++ {
			k.Spawn("w", func(tk *kernel.Task) {
				for j := 0; j < 5; j++ {
					tk.Compute(time.Duration(tk.Kernel().Domain().Rand().IntN(200)) * time.Microsecond)
					m.Lock(tk)
					if inCS != 0 {
						t.Errorf("seed %d: mutual exclusion violated", seed)
					}
					inCS++
					if tk.Kernel().Domain().Rand().IntN(2) == 0 {
						c.Signal(tk)
					}
					inCS--
					m.Unlock(tk)
				}
				done++
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if done != 6 {
			t.Fatalf("seed %d: %d workers finished, want 6", seed, done)
		}
	}
}
