package kernel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kmem"
	"repro/internal/sim"
)

// testParams returns a deterministic timing model with no dispatch costs,
// so tests can assert exact virtual times.
func testParams() Params {
	return Params{
		Quantum:   6 * time.Millisecond,
		FutexFIFO: true,
	}
}

func bootTest(t *testing.T, cores int) (*sim.Simulation, *Kernel) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("p", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(part, Config{Name: "primary", Params: testParams(), Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	return s, k
}

func TestBootReservesKernelMemory(t *testing.T) {
	_, k := bootTest(t, 0)
	if k.Mem().Bytes(kmem.KernelIgnored) == 0 {
		t.Error("boot reserved no unrecoverable kernel memory")
	}
	if k.Cores() != 32 {
		t.Errorf("Cores = %d, want 32", k.Cores())
	}
	if !k.Alive() {
		t.Error("fresh kernel not alive")
	}
}

func TestBootErrors(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, _ := m.NewPartition("p", 0)
	if _, err := Boot(part, Config{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := Boot(part, Config{Name: "k", Cores: 999}); err == nil {
		t.Error("over-subscribed cores accepted")
	}
}

func TestComputeParallelism(t *testing.T) {
	s, k := bootTest(t, 4)
	var finished []sim.Time
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(100 * time.Millisecond)
			finished = append(finished, tk.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finished {
		if f != sim.Time(100*time.Millisecond) {
			t.Errorf("task finished at %v, want exactly 100ms (4 tasks on 4 cores)", f)
		}
	}
	if got := k.ComputeTime(); got != 400*time.Millisecond {
		t.Errorf("ComputeTime = %v, want 400ms", got)
	}
}

func TestComputeContention(t *testing.T) {
	s, k := bootTest(t, 2)
	var last sim.Time
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(60 * time.Millisecond)
			if tk.Now() > last {
				last = tk.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 tasks x 60ms on 2 cores = 120ms total; round-robin means everyone
	// finishes near the end.
	if last != sim.Time(120*time.Millisecond) {
		t.Errorf("last task finished at %v, want 120ms", last)
	}
}

func TestComputeRoundRobinFairness(t *testing.T) {
	s, k := bootTest(t, 1)
	var first sim.Time
	k.Spawn("long", func(tk *Task) {
		tk.Compute(100 * time.Millisecond)
	})
	k.Spawn("short", func(tk *Task) {
		tk.Compute(6 * time.Millisecond)
		first = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// With a 6ms quantum the short task must interleave, not wait 100ms.
	if first > sim.Time(20*time.Millisecond) {
		t.Errorf("short task finished at %v; scheduler is not time-slicing", first)
	}
}

func TestDispatchPenaltyOnIdleCore(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.ContextSwitch = time.Microsecond
	k.params.IdleThreshold = time.Millisecond
	k.params.IdleWakeMin = 5 * time.Millisecond
	k.params.IdleWakeMax = 6 * time.Millisecond
	var done sim.Time
	k.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond) // core idles past the threshold
		tk.Compute(time.Millisecond)
		done = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	min := sim.Time(10*time.Millisecond + time.Millisecond + 5*time.Millisecond)
	if done < min {
		t.Errorf("finished at %v, want >= %v (deep-idle wake penalty)", done, min)
	}
}

func TestNoIdlePenaltyOnBusyHandoff(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.IdleThreshold = time.Millisecond
	k.params.IdleWakeMin = 50 * time.Millisecond
	k.params.IdleWakeMax = 60 * time.Millisecond
	var done sim.Time
	// Two tasks keep the core busy: hand-offs must not pay idle penalty.
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(tk *Task) {
			tk.Compute(30 * time.Millisecond)
			done = tk.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(60*time.Millisecond) {
		t.Errorf("finished at %v, want exactly 60ms (no idle penalty on handoff)", done)
	}
}

// TestWaitRecordGrantBeforePark grants a record before its task parks: the
// grant is not lost, Park returns at once and no process switch happens.
func TestWaitRecordGrantBeforePark(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.WakeBase = time.Microsecond
	var parkedAt, resumedAt sim.Time
	switches, resumed := 0, false
	k.Spawn("w", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		w := tk.Waiter()
		w.Grant()
		s.OnSwitch = func(sim.Time, string) { switches++ }
		parkedAt = tk.Now()
		w.Park()
		resumedAt, resumed = tk.Now(), true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed || resumedAt != parkedAt || switches != 0 {
		t.Errorf("granted record: resumed=%v, parked from %v to %v with %d switches, want no wait and no switch",
			resumed, parkedAt, resumedAt, switches)
	}
}

// TestWaitRecordWakeCost parks a task and grants its record from another:
// the task resumes exactly WakeBase after the grant, and a second grant of
// the woken record changes nothing.
func TestWaitRecordWakeCost(t *testing.T) {
	s, k := bootTest(t, 2)
	k.params.WakeBase = 3 * time.Microsecond
	var w *Waiter
	var resumedAt sim.Time
	k.Spawn("waiter", func(tk *Task) {
		w = tk.Waiter()
		w.Park()
		resumedAt = tk.Now()
		tk.Sleep(time.Millisecond) // still alive when the second grant lands
	})
	k.Spawn("granter", func(tk *Task) {
		tk.Sleep(5 * time.Microsecond)
		w.Grant()
		tk.Sleep(10 * time.Microsecond)
		w.Grant()
		if w.q.Len() != 0 {
			t.Errorf("second grant left %d tasks queued", w.q.Len())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(8 * time.Microsecond); resumedAt != want {
		t.Errorf("parked task resumed at %v, want %v (grant at 5us + WakeBase)", resumedAt, want)
	}
}

// TestWaitRecordKilledWhileParked kills a parked task: the record's queue is
// left empty, and a later grant neither panics nor wakes anything.
func TestWaitRecordKilledWhileParked(t *testing.T) {
	s, k := bootTest(t, 1)
	var w *Waiter
	resumed := false
	victim := k.Spawn("victim", func(tk *Task) {
		w = tk.Waiter()
		w.Park()
		resumed = true
	})
	s.Schedule(time.Millisecond, func() {
		if w.q.Len() != 1 {
			t.Errorf("%d tasks parked on the record before the kill, want 1", w.q.Len())
		}
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if w.q.Len() != 0 {
		t.Fatalf("killed task left %d entries on the record's queue", w.q.Len())
	}
	w.Grant()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed || !victim.Finished() || w.q.Len() != 0 {
		t.Errorf("grant after the kill: resumed=%v finished=%v queued=%d", resumed, victim.Finished(), w.q.Len())
	}
}

// TestWaitRecordArmedTwicePanics arms a task's record while it is still
// armed: the task would be queued on two objects at once.
func TestWaitRecordArmedTwicePanics(t *testing.T) {
	_, k := bootTest(t, 1)
	tk := k.Spawn("w", func(*Task) {})
	tk.Waiter()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "armed twice") {
			t.Errorf("second arm: recovered %v, want an armed-twice panic", r)
		}
	}()
	tk.Waiter()
}

func TestPanicKillsTasks(t *testing.T) {
	s, k := bootTest(t, 4)
	survived := false
	k.Spawn("w", func(tk *Task) {
		tk.Sleep(time.Hour)
		survived = true
	})
	var reasons []PanicReason
	k.OnPanic(func(r PanicReason) { reasons = append(reasons, r) })
	s.Schedule(time.Millisecond, func() { k.Panic("test", nil) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if survived {
		t.Error("task survived kernel panic")
	}
	if k.Alive() {
		t.Error("kernel alive after panic")
	}
	if len(reasons) != 1 || reasons[0].Cause != "test" {
		t.Errorf("panic callbacks = %v", reasons)
	}
	// Double panic is a no-op.
	k.Panic("again", nil)
	if len(reasons) != 1 {
		t.Error("second Panic invoked callbacks")
	}
}

func TestHandleFaultCoreFailStop(t *testing.T) {
	_, k := bootTest(t, 4)
	out := k.HandleFault(hw.Fault{Kind: hw.CoreFailStop, Node: 0, Core: 1})
	if out != kmem.OutcomeKernelPanic {
		t.Errorf("outcome = %v, want kernel panic", out)
	}
	if k.Alive() {
		t.Error("kernel alive after core fail-stop")
	}
	if r := k.PanicReason(); r == nil || !strings.Contains(r.Cause, "core-fail-stop") {
		t.Errorf("panic reason = %+v", k.PanicReason())
	}
}

func TestHandleFaultOtherPartitionIgnored(t *testing.T) {
	_, k := bootTest(t, 4) // owns nodes 0-3
	out := k.HandleFault(hw.Fault{Kind: hw.CoreFailStop, Node: 7})
	if out != kmem.OutcomeNone || !k.Alive() {
		t.Error("fault on foreign partition affected kernel")
	}
}

func TestHandleFaultMemoryOutcomes(t *testing.T) {
	_, k := bootTest(t, 4)
	// Lay out user memory after the boot reservation so we can aim faults.
	if err := k.Mem().Alloc(kmem.User, 1<<30); err != nil {
		t.Fatal(err)
	}
	// Address 0 falls in the boot reservation (KernelIgnored): corrected
	// errors are absorbed, uncorrected ones panic the kernel.
	if out := k.HandleFault(hw.Fault{Kind: hw.MemCorrected, Node: 0, Addr: 0}); out != kmem.OutcomeNone {
		t.Errorf("corrected error outcome = %v, want none", out)
	}
	if !k.Alive() {
		t.Fatal("corrected error killed kernel")
	}
	// An address just past the kernel reservation hits user memory.
	userAddr := k.Mem().Bytes(kmem.KernelIgnored) + 4096
	if out := k.HandleFault(hw.Fault{Kind: hw.MemUncorrected, Node: 0, Addr: userAddr}); out != kmem.OutcomeUserKill {
		t.Errorf("user-memory DUE outcome = %v, want user-kill", out)
	}
	if out := k.HandleFault(hw.Fault{Kind: hw.MemCorrected, Node: 0, Addr: userAddr}); out != kmem.OutcomeNone {
		t.Errorf("user-memory corrected error outcome = %v, want none", out)
	}
	if !k.Alive() {
		t.Fatal("user-memory fault killed kernel")
	}
	if out := k.HandleFault(hw.Fault{Kind: hw.MemUncorrected, Node: 0, Addr: 0}); out != kmem.OutcomeKernelPanic {
		t.Errorf("kernel-memory DUE outcome = %v, want panic", out)
	}
	if k.Alive() {
		t.Error("kernel survived DUE in unrecoverable memory")
	}
}

func TestDeviceExclusiveOwnership(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	p0, _ := m.NewPartition("a", 0, 1, 2, 3)
	p1, _ := m.NewPartition("b", 4, 5, 6, 7)
	k0, err := Boot(p0, Config{Name: "primary", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Boot(p1, Config{Name: "secondary", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	nic := NewDevice("eth0", 5*time.Second)
	var loadedAt sim.Time
	k0.Spawn("boot", func(tk *Task) {
		if err := tk.LoadDriver(nic); err != nil {
			t.Errorf("LoadDriver: %v", err)
		}
		loadedAt = tk.Now()
	})
	k1.Spawn("stealer", func(tk *Task) {
		tk.Sleep(10 * time.Second)
		if err := tk.LoadDriver(nic); err == nil {
			t.Error("live kernel's device was stolen")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if loadedAt != sim.Time(5*time.Second) {
		t.Errorf("driver loaded at %v, want 5s", loadedAt)
	}
	if nic.Owner() != k0 || !nic.Loaded() {
		t.Error("ownership/loaded state wrong")
	}

	// After the owner dies, the peer can take over; reload takes 5s, and
	// the device is the peer's but down until it completes.
	k0.Panic("fault", nil)
	var tookOver sim.Time
	s.Schedule(time.Second, func() {
		if nic.Owner() != k1 || nic.Loaded() {
			t.Errorf("mid-reload: owner %v loaded %v, want the peer's and down", nic.Owner().Name(), nic.Loaded())
		}
	})
	k1.Spawn("failover", func(tk *Task) {
		if err := tk.LoadDriver(nic); err != nil {
			t.Errorf("takeover LoadDriver: %v", err)
		}
		tookOver = tk.Now()
	})
	start := s.Now()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tookOver.Sub(start); got != 5*time.Second {
		t.Errorf("takeover took %v, want 5s", got)
	}
	if nic.Owner() != k1 || !nic.Loaded() {
		t.Error("takeover state wrong")
	}
}

func TestJoin(t *testing.T) {
	s, k := bootTest(t, 4)
	var joined sim.Time
	w := k.Spawn("worker", func(tk *Task) {
		tk.Sleep(25 * time.Millisecond)
	})
	k.Spawn("main", func(tk *Task) {
		w.Join(tk)
		joined = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != sim.Time(25*time.Millisecond) {
		t.Errorf("joined at %v, want 25ms", joined)
	}
}

func TestSyscallCost(t *testing.T) {
	s, k := bootTest(t, 1)
	k.params.SyscallCost = time.Microsecond
	var end sim.Time
	k.Spawn("w", func(tk *Task) {
		for i := 0; i < 10; i++ {
			tk.Syscall()
		}
		end = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(10*time.Microsecond) {
		t.Errorf("10 syscalls took %v, want 10us", end)
	}
}

// TestKillAnywhereInComputeReleasesCore kills a computing task — a process
// in Compute, or a stackless task in ComputeThen — at every 500 ns offset
// across everything a compute does — owing the dispatch penalty, queued, in
// the context switch of a hand-off, mid-slice, preempted — alone on idle
// cores and contended on one, and requires every core back on the idle list
// once the survivors have drained the queue.
func TestKillAnywhereInComputeReleasesCore(t *testing.T) {
	for _, stackless := range []bool{false, true} {
		killAnywhereInCompute(t, stackless)
	}
}

func killAnywhereInCompute(t *testing.T, stackless bool) {
	hit := map[string]int{} // where the kills landed
	for _, contended := range []bool{false, true} {
		cores, span := 2, 40*time.Microsecond
		if contended {
			cores, span = 1, 150*time.Microsecond
		}
		for at := time.Duration(0); at <= span; at += 500 * time.Nanosecond {
			s, k := bootTest(t, cores)
			k.params.Quantum = 10 * time.Microsecond
			k.params.ContextSwitch = 2 * time.Microsecond
			k.params.WakePreemptProb = 1
			if contended {
				// A hog to share the core with and a waker that keeps coming
				// back boosted, so the victim queues, is handed the core and
				// is preempted out of its batch slices.
				k.Spawn("hog", func(tk *Task) { tk.Compute(45 * time.Microsecond) })
				k.Spawn("waker", func(tk *Task) {
					for i := 0; i < 12; i++ {
						tk.Sleep(9 * time.Microsecond)
						tk.Compute(time.Microsecond)
					}
				})
			}
			var victim *Task
			if stackless {
				victim = k.SpawnStackless("victim", func() { victim.ComputeThen(35*time.Microsecond, func() {}) })
			} else {
				victim = k.Spawn("victim", func(tk *Task) { tk.Compute(35 * time.Microsecond) })
			}
			s.Schedule(at, func() {
				switch sl := &victim.slice; {
				case victim.finished:
					hit["finished"]++
				case victim.core < 0:
					hit["queued"]++
				case victim.dispatch.Armed() && contended:
					hit["hand-off"]++
				case victim.dispatch.Armed():
					hit["penalty"]++
				case sl.preempted:
					hit["preempted"]++
				default:
					hit["slice"]++
				}
				victim.Kill()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			running := 0
			for _, sl := range k.sched.running {
				if sl != nil {
					running++
				}
			}
			if k.IdleCores() != k.Cores() || k.Runnable() != 0 || running != 0 {
				t.Errorf("stackless=%v, contended=%v, killed at +%v: %d of %d cores idle, %d queued, %d slices running once everything finished",
					stackless, contended, at, k.IdleCores(), k.Cores(), k.Runnable(), running)
			}
			s.Shutdown()
		}
	}
	for _, where := range []string{"penalty", "queued", "hand-off", "slice", "preempted", "finished"} {
		if hit[where] == 0 {
			t.Errorf("stackless=%v: no kill landed on a task that was %s: %v", stackless, where, hit)
		}
	}
	t.Log(hit)
}
