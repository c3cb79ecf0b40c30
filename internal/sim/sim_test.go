package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
}

func TestScheduleTieBrokenByInsertion(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tied events fired in order %v, want insertion order", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	s.Schedule(time.Microsecond, func() { e.Cancel() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.ScheduleAt(0, func() {})
	})
	defer func() { recover() }() // the proc-panic propagates out of Run
	_ = s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(Time(3 * time.Millisecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 5 {
			s.Stop()
			return
		}
		s.Schedule(time.Millisecond, tick)
	}
	s.Schedule(time.Millisecond, tick)
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if n != 5 {
		t.Errorf("ticked %d times, want 5", n)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		wake = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wake != Time(10*time.Millisecond) {
		t.Errorf("woke at %v, want 10ms", wake)
	}
	if s.Live() != 0 {
		t.Errorf("Live() = %d, want 0", s.Live())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	s := New(1)
	var got []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				got = append(got, name)
				p.Sleep(time.Millisecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", got, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("bad", func(p *Proc) {
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("proc panic did not propagate out of Run")
		}
	}()
	_ = s.Run()
}

func TestKillParkedProc(t *testing.T) {
	s := New(1)
	q := new(WaitQueue)
	reached := false
	p := s.Spawn("victim", func(p *Proc) {
		q.Wait(p)
		reached = true
	})
	s.Schedule(time.Millisecond, func() { p.Kill() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Error("killed proc continued past its block point")
	}
	if !p.Finished() {
		t.Error("killed proc did not finish")
	}
	if q.Len() != 0 {
		t.Errorf("queue still has %d waiters", q.Len())
	}
}

func TestKillSleepingProc(t *testing.T) {
	s := New(1)
	reached := false
	p := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	s.Schedule(time.Millisecond, func() { p.Kill() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached {
		t.Error("killed sleeper woke up")
	}
	if s.Now() >= Time(time.Hour) {
		t.Errorf("simulation ran to %v; kill should have cancelled the sleep", s.Now())
	}
}

func TestKillSelfTakesEffectAtBlockPoint(t *testing.T) {
	s := New(1)
	var steps int
	var p *Proc
	p = s.Spawn("suicidal", func(q *Proc) {
		steps++
		p.Kill()
		steps++ // still runs: kill lands at next block point
		q.Sleep(time.Millisecond)
		steps++ // must not run
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if steps != 2 {
		t.Errorf("steps = %d, want 2", steps)
	}
}

func TestGroupKill(t *testing.T) {
	s := New(1)
	g := s.NewGroup("partition0")
	survived := 0
	for i := 0; i < 5; i++ {
		g.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Hour)
			survived++
		})
	}
	other := s.Spawn("other", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
	})
	s.Schedule(time.Millisecond, func() { g.Kill() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if survived != 0 {
		t.Errorf("%d group procs survived kill", survived)
	}
	if !other.Finished() {
		t.Error("non-group proc was affected by group kill")
	}
	if g.Live() != 0 {
		t.Errorf("group Live() = %d, want 0", g.Live())
	}
}

func TestSpawnIntoKilledGroupDies(t *testing.T) {
	s := New(1)
	g := s.NewGroup("g")
	g.Kill()
	ran := false
	g.Spawn("late", func(p *Proc) { ran = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("proc spawned into killed group ran")
	}
}

func TestSpawnAfterDelay(t *testing.T) {
	s := New(1)
	var started Time
	s.SpawnAfter("late", 7*time.Millisecond, func(p *Proc) { started = p.Now() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if started != Time(7*time.Millisecond) {
		t.Errorf("started at %v, want 7ms", started)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(time.Second)
	if got := tm.Add(time.Millisecond); got != Time(time.Second+time.Millisecond) {
		t.Errorf("Add: got %v", got)
	}
	if got := tm.Sub(Time(time.Millisecond)); got != time.Second-time.Millisecond {
		t.Errorf("Sub: got %v", got)
	}
	if got := tm.Seconds(); got != 1.0 {
		t.Errorf("Seconds: got %v", got)
	}
}
