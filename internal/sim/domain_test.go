package sim

import (
	"testing"
	"time"
	"unsafe"
)

// TestDomainDeath pins what killing a Group does to its events: the pending
// ones are dropped in the kill, so they neither fire nor hold Run open, and
// arming one afterwards draws nothing. The owner pointer costs no space.
func TestDomainDeath(t *testing.T) {
	t.Run("armed event never fires", func(t *testing.T) {
		s := New(1)
		defer s.Shutdown()
		g := s.NewGroup("g")
		fired := map[string]bool{}
		var timer, rootTimer Event
		timer.Init(g, func() { fired["timer"] = true })
		rootTimer.Init(s.Root(), func() { fired["root timer"] = true })
		timer.Reset(2 * time.Millisecond)
		rootTimer.Reset(2 * time.Millisecond)
		shot := g.Schedule(3*time.Millisecond, func() { fired["shot"] = true })
		s.Schedule(time.Millisecond, g.Kill)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fired["timer"] || fired["shot"] || !fired["root timer"] {
			t.Errorf("fired %v, want the root timer's alone", fired)
		}
		if timer.Armed() || shot.Armed() || s.Pending() != 0 {
			t.Errorf("after the kill: timer armed %v, shot armed %v, %d pending", timer.Armed(), shot.Armed(), s.Pending())
		}
	})
	t.Run("stops holding Run open", func(t *testing.T) {
		s := New(1)
		defer s.Shutdown()
		g := s.NewGroup("g")
		g.Schedule(time.Hour, func() { t.Error("a dead domain's event fired") })
		g.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		s.Schedule(time.Millisecond, g.Kill)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if s.Now() != Time(time.Millisecond) || s.Pending() != 0 || s.Live() != 0 {
			t.Errorf("Run ended at %v with %d pending and %d live, want 1ms, 0 and 0", s.Now(), s.Pending(), s.Live())
		}
	})
	t.Run("Reset after the death is a no-op", func(t *testing.T) {
		s := New(1)
		defer s.Shutdown()
		g := s.NewGroup("g")
		var e Event
		e.Init(g, func() { t.Error("a dead domain's event fired") })
		g.Kill()
		seq := s.seq
		e.Reset(time.Millisecond)
		shot := g.Schedule(time.Millisecond, func() { t.Error("a dead domain's one-shot fired") })
		if e.Armed() || shot.Armed() || s.Pending() != 0 || s.seq != seq {
			t.Errorf("armed %v/%v, %d pending, %d sequence numbers drawn; want nothing", e.Armed(), shot.Armed(), s.Pending(), s.seq-seq)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("Event stays 40 bytes", func(t *testing.T) {
		if n := unsafe.Sizeof(Event{}); n != 40 {
			t.Errorf("sizeof(Event) = %d, want 40", n)
		}
	})
}

// TestSelfKillUnwindsAtOnce pins the tail of a domain that kills itself: a
// process of the group that calls Kill unwinds from the call — the code
// after it never runs, its deferred functions do, as a dead domain's — while
// a callback of the group runs on to its end as a dead domain's, which the
// guard holds to doing nothing.
func TestSelfKillUnwindsAtOnce(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	g := s.NewGroup("g")
	var tail, deferred, guarded, callbackTail bool
	g.Spawn("self-killer", func(p *Proc) {
		defer func() {
			deferred = true
			defer func() { guarded = recover() != nil }()
			s.Schedule(0, func() {})
		}()
		p.Sleep(time.Millisecond)
		g.Kill()
		tail = true
	})
	h := s.NewGroup("h")
	h.Schedule(time.Millisecond, func() {
		h.Kill()
		callbackTail = true
		defer func() {
			if recover() == nil {
				t.Error("a dead domain's callback armed an event")
			}
		}()
		h.Schedule(0, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tail || !deferred || !guarded {
		t.Errorf("ran past its own Kill %v, deferred function ran %v, its arming panicked %v; want false, true, true", tail, deferred, guarded)
	}
	if !callbackTail {
		t.Error("the callback stopped at its Kill")
	}
}
