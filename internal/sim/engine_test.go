package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBlockingAllocatesNothing pins what the engine is for: once a
// simulation is in steady state, blocking, waking, timing out, re-arming
// and killing do not touch the host heap.
func TestBlockingAllocatesNothing(t *testing.T) {
	const (
		warm = 3 * compactMin // steps until the queue's backing array has its steady size
		runs = 200            // AllocsPerRun adds one more
	)
	loop := func(s *Simulation, n int, body func(p *Proc)) {
		for i := 0; i < n; i++ {
			s.Spawn("looper", func(p *Proc) {
				for {
					body(p)
				}
			})
		}
	}
	victims := func(s *Simulation, body func(p *Proc)) func() {
		var procs []*Proc
		for i := 0; i < warm+runs+1; i++ {
			procs = append(procs, s.Spawn("victim", body))
		}
		return func() {
			procs[0].Kill()
			procs = procs[1:]
			s.RunFor(0)
		}
	}
	cases := []struct {
		name  string
		build func(s *Simulation) (step func())
	}{
		{"Sleep", func(s *Simulation) func() {
			loop(s, 1, func(p *Proc) { p.Sleep(time.Millisecond) })
			return func() { s.RunFor(time.Millisecond) }
		}},
		{"Wait+WakeOne", func(s *Simulation) func() {
			var q WaitQueue
			loop(s, 1, q.Wait)
			return func() { q.WakeOne(0); s.RunFor(0) }
		}},
		{"WaitTimeout woken", func(s *Simulation) func() {
			var q WaitQueue
			loop(s, 1, func(p *Proc) { q.WaitTimeout(p, time.Hour) })
			return func() { q.WakeOne(0); s.RunFor(0) }
		}},
		{"WaitTimeout timed out", func(s *Simulation) func() {
			var q WaitQueue
			loop(s, 1, func(p *Proc) { q.WaitTimeout(p, time.Millisecond) })
			return func() { s.RunFor(time.Millisecond) }
		}},
		{"WakeAll", func(s *Simulation) func() {
			var q WaitQueue
			loop(s, 8, q.Wait)
			return func() { q.WakeAll(time.Microsecond); s.RunFor(time.Microsecond) }
		}},
		{"Event.Reset", func(s *Simulation) func() {
			var e Event
			e.Init(s.Root(), func() {})
			return func() {
				e.Reset(time.Millisecond)
				e.Reset(2 * time.Millisecond)
				s.RunFor(2 * time.Millisecond)
			}
		}},
		{"Kill sleeping", func(s *Simulation) func() {
			return victims(s, func(p *Proc) { p.Sleep(time.Hour) })
		}},
		{"Kill queued", func(s *Simulation) func() {
			var q WaitQueue
			return victims(s, q.Wait)
		}},
		{"Schedule+fire", func(s *Simulation) func() {
			fn := func() {}
			return func() { s.Schedule(time.Millisecond, fn); s.RunFor(time.Millisecond) }
		}},
		{"Schedule+Cancel", func(s *Simulation) func() {
			fn := func() {}
			return func() { s.Schedule(time.Millisecond, fn).Cancel() }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			defer s.Shutdown()
			step := c.build(s)
			s.RunFor(0) // everyone reaches their first block point
			for i := 0; i < warm; i++ {
				step()
			}
			if n := testing.AllocsPerRun(runs, step); n != 0 {
				t.Errorf("%v allocations per step, want 0", n)
			}
		})
	}
}

// TestStaleShotCancelsNothing: a one-shot's record is reused by the next
// Schedule once its arming is over, and the old Shot then touches nothing —
// not the new arming, which still fires, nor the queue's count.
func TestStaleShotCancelsNothing(t *testing.T) {
	for _, end := range []string{"fired", "cancelled"} {
		t.Run(end, func(t *testing.T) {
			s := New(1)
			var fired []string
			stale := s.Schedule(time.Millisecond, func() { fired = append(fired, "old") })
			if end == "fired" {
				s.RunFor(time.Millisecond)
			} else {
				stale.Cancel()
			}
			fresh := s.Schedule(time.Millisecond, func() { fired = append(fired, "new") })
			if fresh.ev != stale.ev {
				t.Fatal("the second Schedule did not reuse the freed record")
			}
			stale.Cancel()
			if stale.Armed() || !fresh.Armed() || s.Pending() != 1 {
				t.Errorf("after the stale Cancel: stale armed %v, fresh armed %v, %d pending; want false, true, 1", stale.Armed(), fresh.Armed(), s.Pending())
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			want := "[old new]"
			if end == "cancelled" {
				want = "[new]"
			}
			if fmt.Sprint(fired) != want {
				t.Errorf("fired %v, want %v", fired, want)
			}
		})
	}
}

// TestFreedShotFiringPanics: in a test binary a freed one-shot record is
// poisoned, so an engine fault that frees a record whose arming is still
// queued is named when the arming fires, instead of running whatever the
// record holds then.
func TestFreedShotFiringPanics(t *testing.T) {
	s := New(1)
	h := s.Schedule(time.Millisecond, func() { t.Error("the freed record ran its callback") })
	s.free(h.ev) // the fault: freed with its arming still live
	defer func() {
		if r := recover(); fmt.Sprint(r) != "sim: a freed one-shot event fired" {
			t.Errorf("Run panicked with %v, want the freed-record panic", r)
		}
	}()
	s.Run()
	t.Error("Run returned")
}

func TestEventReset(t *testing.T) {
	s := New(1)
	var fired []Time
	var e Event
	e.Init(s.Root(), func() { fired = append(fired, s.Now()) })
	if e.Armed() {
		t.Error("a new event is armed")
	}
	e.Reset(5 * time.Millisecond)
	e.Reset(2 * time.Millisecond) // replaces the first firing
	if !e.Armed() || e.At() != Time(2*time.Millisecond) || s.Pending() != 1 {
		t.Errorf("after two Resets: armed=%v at=%v pending=%d, want one firing at 2ms", e.Armed(), e.At(), s.Pending())
	}
	s.Schedule(3*time.Millisecond, func() { e.Reset(time.Millisecond) }) // re-arm after it fired
	s.Schedule(4*time.Millisecond+time.Microsecond, func() {
		e.Reset(time.Millisecond)
		e.Cancel()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(2*time.Millisecond) || fired[1] != Time(4*time.Millisecond) {
		t.Errorf("fired at %v, want [2ms 4ms]", fired)
	}
	if e.Armed() || s.Pending() != 0 {
		t.Errorf("at the end: armed=%v pending=%d", e.Armed(), s.Pending())
	}
}

// A callback may re-arm its own event: the entry that fired is spent
// before the callback runs.
func TestEventResetFromOwnCallback(t *testing.T) {
	s := New(1)
	n := 0
	var e Event
	e.Init(s.Root(), func() {
		if n++; n < 5 {
			e.Reset(time.Millisecond)
		}
	})
	e.Reset(time.Millisecond)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 || s.Now() != Time(5*time.Millisecond) {
		t.Errorf("fired %d times until %v, want 5 until 5ms", n, s.Now())
	}
}

func TestMadeRunnableTwicePanics(t *testing.T) {
	s := New(1)
	p := s.Spawn("p", func(p *Proc) {}) // Spawn queued its first resume
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `"p" made runnable while a resume is already pending`) {
			t.Errorf("recovered %v, want the made-runnable-twice panic", r)
		}
		s.Shutdown()
	}()
	p.makeRunnable(0)
}

func TestShutdownUnwindsEveryProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var q WaitQueue
	unwound := 0
	g := s.NewGroup("g")
	for i := 0; i < 20; i++ {
		body := func(p *Proc) {
			defer func() { unwound++ }()
			switch i % 4 {
			case 0:
				q.Wait(p)
			case 1:
				q.WaitTimeout(p, time.Hour)
			case 2:
				p.Sleep(time.Hour)
			case 3:
				defer p.Sleep(time.Second) // blocks again while unwinding
				p.Kill()                   // killed, then parked where no Kill reaches
				q.Wait(p)
			}
		}
		if i%2 == 0 {
			g.Spawn("p", body)
		} else {
			s.Spawn("p", body)
		}
	}
	// Never started: their coroutines exist and have to end without running.
	for i := 0; i < 3; i++ {
		s.SpawnAfter("late", time.Hour, func(p *Proc) { t.Error("a process that never started ran at Shutdown") })
		g.SpawnAfter("late", time.Hour, func(p *Proc) { t.Error("a process that never started ran at Shutdown") })
	}
	// The last to block before the boundary: it ran the loop up to 1 s and
	// switched out mid-sleep, and the second run never gets to its wake-up.
	s.Spawn("boundary", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(3 * time.Second)
		t.Error("the process suspended at the RunUntil boundary woke up")
	})
	for _, until := range []time.Duration{time.Second, 2 * time.Second} {
		if err := s.RunUntil(Time(until)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Live() != 27 {
		t.Fatalf("Live() = %d before Shutdown, want 27", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 || q.Len() != 0 || s.Pending() != 0 {
		t.Errorf("after Shutdown: Live()=%d queue=%d Pending()=%d, want all 0", s.Live(), q.Len(), s.Pending())
	}
	if unwound != 21 {
		t.Errorf("%d deferred functions ran, want 21", unwound)
	}
	if err := s.Run(); err != ErrStopped {
		t.Errorf("Run after Shutdown = %v, want ErrStopped", err)
	}
	// A goroutine has handed control back just before it exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the simulation", runtime.NumGoroutine(), before)
		}
	}
}

// TestSelfResumeSwitchesNothing: a process that blocks and is itself the
// next to run never gives control up. One switch starts the lone sleeper;
// its 10 000 wake-ups are not switches.
func TestSelfResumeSwitchesNothing(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	switches, slept, ticks := 0, 0, 0
	s.OnSwitch = func(Time, string) { switches++ }
	s.Spawn("sleeper", func(p *Proc) {
		for ; slept < 10000; slept++ {
			p.Sleep(time.Microsecond)
		}
	})
	var tick Event // callbacks in between fire on the sleeper's stack and change nothing
	tick.Init(s.Root(), func() {
		if ticks++; ticks < 1000 {
			tick.Reset(7 * time.Microsecond)
		}
	})
	tick.Reset(0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if slept != 10000 || ticks != 1000 || switches != 1 {
		t.Errorf("%d sleeps and %d callbacks took %d switches, want 10000, 1000 and 1", slept, ticks, switches)
	}
}

// TestOnSwitchIsOnePerCoroutineSwitch: OnSwitch counts the thing it names.
// Every transfer of control into a process is a switchIn call made by the
// driver; the hook fires once for each and never otherwise, whatever mix of
// sleeps, wake-ups, time-outs, kills, callbacks and run boundaries.
func TestOnSwitchIsOnePerCoroutineSwitch(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	hooks, switchIns, resumes := 0, 0, 0
	s.OnSwitch = func(Time, string) { hooks++ }
	var q WaitQueue
	var procs []*Proc
	spawn := func(name string, d time.Duration, fn func(p *Proc)) {
		p := s.SpawnAfter(name, d, fn)
		in := p.switchIn
		p.switchIn = func() (*Proc, bool) { switchIns++; return in() }
		procs = append(procs, p)
	}
	for i := 0; i < 6; i++ {
		spawn(fmt.Sprint("p", i), time.Duration(i)*time.Microsecond, func(p *Proc) {
			for n := 0; n < 200; n++ {
				switch (n + i) % 4 {
				case 0:
					p.Sleep(time.Duration(i) * time.Microsecond)
				case 1:
					q.WaitTimeout(p, 3*time.Microsecond)
				case 2:
					q.WakeOne(time.Microsecond)
				case 3:
					q.Wait(p)
				}
				resumes++
			}
		})
	}
	var tick Event
	tick.Init(s.Root(), func() {
		q.WakeAll(0)
		if s.Now() == Time(50*time.Microsecond) {
			procs[5].Kill()
			spawn("late", time.Microsecond, func(p *Proc) { p.Sleep(time.Microsecond) })
		}
		if s.Now() < Time(time.Millisecond) {
			tick.Reset(5 * time.Microsecond)
		}
	})
	tick.Reset(0)
	for s.Pending() > 0 {
		if err := s.RunFor(7 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if hooks != switchIns || hooks == 0 || hooks >= resumes {
		t.Errorf("OnSwitch fired %d times for %d switchIn calls (%d block points returned)", hooks, switchIns, resumes)
	}
}

// mustPanic runs fn, which must panic, and returns what it panicked with.
func mustPanic(t *testing.T, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	fn()
	return nil
}

// onEitherStack runs body twice, on simulations whose callbacks fire on the
// driver's stack (the only process has not started) and on the stack of a
// sleeping process, which nothing a callback does may unwind.
func onEitherStack(t *testing.T, body func(t *testing.T, s *Simulation, sleeper *Proc)) {
	for _, stack := range []string{"driver", "process"} {
		t.Run("fired by the "+stack, func(t *testing.T) {
			s := New(1)
			start, unwound := time.Hour, false
			if stack == "process" {
				start = 0
			}
			sleeper := s.SpawnAfter("sleeper", start, func(p *Proc) {
				defer func() { unwound = true }()
				p.Sleep(time.Hour)
			})
			body(t, s, sleeper)
			if unwound {
				t.Error("a callback's panic unwound the process it fired on")
			}
			s.Shutdown()
		})
	}
}

// blockingCalls is every way a process blocks, by name.
func blockingCalls(q *WaitQueue) map[string]func(p *Proc) {
	return map[string]func(p *Proc){
		"Sleep":       func(p *Proc) { p.Sleep(time.Millisecond) },
		"Wait":        func(p *Proc) { q.Wait(p) },
		"WaitTimeout": func(p *Proc) { q.WaitTimeout(p, time.Millisecond) },
	}
}

// A callback that blocks would hang the run (it has no process to park):
// the engine panics instead, naming the process and the call.
func TestBlockingFromCallbackPanics(t *testing.T) {
	var q WaitQueue
	for call, block := range blockingCalls(&q) {
		onEitherStack(t, func(t *testing.T, s *Simulation, sleeper *Proc) {
			s.Schedule(time.Millisecond, func() { block(sleeper) })
			msg, _ := mustPanic(t, func() { s.Run() }).(string)
			if !strings.HasPrefix(msg, fmt.Sprintf("sim: %s on process %q from an event callback", call, "sleeper")) {
				t.Errorf("%s from a callback panicked with %q", call, msg)
			}
			if q.Len() != 0 || s.Pending() != 1 {
				t.Errorf("the refused %s left %d parked and %d pending, want 0 and the sleeper's wake-up", call, q.Len(), s.Pending())
			}
		})
	}
}

// So would a blocking call on a process other than the one running: the
// caller would park itself under another's name.
func TestBlockingOnAnotherProcessPanics(t *testing.T) {
	var q WaitQueue
	for call, block := range blockingCalls(&q) {
		s := New(1)
		other := s.Spawn("other", func(p *Proc) { p.Sleep(time.Hour) })
		s.SpawnAfter("confused", time.Millisecond, func(p *Proc) { block(other) })
		msg, _ := mustPanic(t, func() { s.Run() }).(string)
		want := fmt.Sprintf("sim: %s on process %q, which is not running: process %q is", call, "other", "confused")
		if !strings.HasPrefix(msg, `sim: process "confused" panicked: `+want) {
			t.Errorf("%s on another process panicked with %q, want the confused process blamed for %q", call, msg, want)
		}
		s.Shutdown()
	}
}

// A callback's panic reaches Run's caller as it was raised, whichever stack
// fired it: it is not the fault of the process that happened to be running
// the loop, and that process is not unwound by it.
func TestCallbackPanicReachesRunUnwrapped(t *testing.T) {
	boom := errors.New("boom")
	onEitherStack(t, func(t *testing.T, s *Simulation, sleeper *Proc) {
		fired := 0
		s.Schedule(time.Millisecond, func() { fired++; panic(boom) })
		s.Schedule(2*time.Millisecond, func() { fired++ })
		if r := mustPanic(t, func() { s.Run() }); r != boom {
			t.Errorf("Run panicked with %v, want the callback's own value", r)
		}
		if fired != 1 || s.Now() != Time(time.Millisecond) || sleeper.Finished() {
			t.Errorf("after the panic: %d callbacks fired, now %v, sleeper finished %v", fired, s.Now(), sleeper.Finished())
		}
		// The failure was raised once; the run can go on from where it stopped.
		if err := s.RunUntil(Time(time.Minute)); err != nil || fired != 2 {
			t.Errorf("the next run returned %v having fired %d callbacks, want nil and 2", err, fired)
		}
	})
}
