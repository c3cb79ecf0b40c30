package sim

import (
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
			e.Init(s, func() {})
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

func TestEventReset(t *testing.T) {
	s := New(1)
	var fired []Time
	var e Event
	e.Init(s, func() { fired = append(fired, s.Now()) })
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
	if e.Armed() || !e.Cancelled() || s.Pending() != 0 {
		t.Errorf("at the end: armed=%v cancelled=%v pending=%d", e.Armed(), e.Cancelled(), s.Pending())
	}
}

// A callback may re-arm its own event: the entry that fired is spent
// before the callback runs.
func TestEventResetFromOwnCallback(t *testing.T) {
	s := New(1)
	n := 0
	var e Event
	e.Init(s, func() {
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
	s.SpawnAfter("late", time.Hour, func(p *Proc) { t.Error("a process that never started ran at Shutdown") })
	if err := s.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 21 {
		t.Fatalf("Live() = %d before Shutdown, want 21", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 || g.Live() != 0 || q.Len() != 0 || s.Pending() != 0 {
		t.Errorf("after Shutdown: Live()=%d group=%d queue=%d Pending()=%d, want all 0", s.Live(), g.Live(), q.Len(), s.Pending())
	}
	if unwound != 20 {
		t.Errorf("%d deferred functions ran, want 20", unwound)
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
