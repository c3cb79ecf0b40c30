package sim

import (
	"fmt"
	"slices"
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
		g.Schedule(3*time.Millisecond, func() { fired["shot"] = true })
		s.Schedule(time.Millisecond, g.Kill)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fired["timer"] || fired["shot"] || !fired["root timer"] {
			t.Errorf("fired %v, want the root timer's alone", fired)
		}
		if timer.Armed() || s.Pending() != 0 {
			t.Errorf("after the kill: timer armed %v, %d pending", timer.Armed(), s.Pending())
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
		g.Schedule(time.Millisecond, func() { t.Error("a dead domain's one-shot fired") })
		if e.Armed() || s.Pending() != 0 || s.seq != seq {
			t.Errorf("armed %v, %d pending, %d sequence numbers drawn; want nothing", e.Armed(), s.Pending(), s.seq-seq)
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

// TestKillBringsADelayedWakeForward pins Kill on a process whose wake-up is
// pending with a delay: it unwinds at the kill, not when the wake-up was
// due, so a dead domain holds no entry in the queue past its death.
func TestKillBringsADelayedWakeForward(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	g := s.NewGroup("g")
	var q WaitQueue
	var unwound Time = -1
	g.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = p.Now() }()
		q.Wait(p)
		t.Error("the killed waiter ran on past its wake-up")
	})
	s.Schedule(time.Microsecond, func() {
		q.WakeOne(10 * time.Microsecond)
		g.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at := Time(time.Microsecond); unwound != at || s.Now() != at || s.Live() != 0 {
		t.Errorf("waiter unwound at %v, Run ended at %v with %d live; want both at %v and none", unwound, s.Now(), s.Live(), at)
	}
}

// TestHungDomainRunsNothingUntilKilled pins Group.Hang: a hung domain's
// processes are not switched in again, whether asleep, woken by another
// domain or timing out, and its events do not fire, while it is not killed
// and the rest of the simulation runs on; a later Kill unwinds each of its
// processes at once.
func TestHungDomainRunsNothingUntilKilled(t *testing.T) {
	s := New(1)
	defer s.Shutdown()
	g := s.NewGroup("g")
	var q, timed WaitQueue
	ran, unwound := map[string]bool{}, map[string]Time{}
	for name, block := range map[string]func(p *Proc){
		"sleeper": func(p *Proc) { p.Sleep(2 * time.Millisecond) },
		"waiter":  func(p *Proc) { q.Wait(p) },
		"timer":   func(p *Proc) { timed.WaitTimeout(p, 2*time.Millisecond) },
	} {
		g.Spawn(name, func(p *Proc) {
			defer func() { unwound[name] = p.Now() }()
			block(p)
			ran[name] = true
		})
	}
	var e Event
	e.Init(g, func() { ran["event"] = true })
	e.Reset(2 * time.Millisecond)
	g.Schedule(2*time.Millisecond, func() { ran["shot"] = true })
	s.Schedule(time.Millisecond, g.Hang)
	s.Schedule(3*time.Millisecond, func() { q.WakeOne(0) })
	s.Schedule(5*time.Millisecond, func() {
		if g.Killed() || len(ran) != 0 || len(unwound) != 0 {
			t.Errorf("hung for 4ms: killed %v, ran %v, unwound %v; want nothing", g.Killed(), ran, unwound)
		}
		g.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at := Time(5 * time.Millisecond); len(ran) != 0 || len(unwound) != 3 || unwound["sleeper"] != at || s.Live() != 0 {
		t.Errorf("ran %v, unwound %v, %d live; want every process unwound at %v and nothing else run", ran, unwound, s.Live(), at)
	}
}

// TestStreamDependsOnSeedAndName pins each domain's random stream to
// (seed, name): creating other domains before or after it, or drawing from
// them in between, leaves its sequence unchanged; another name or another
// seed gives another sequence.
func TestStreamDependsOnSeedAndName(t *testing.T) {
	draws := func(seed int64, name string, others int) []uint64 {
		s := New(seed)
		var gs []*Group
		for i := range others {
			gs = append(gs, s.NewGroup(fmt.Sprintf("other%d", i)))
		}
		g := s.NewGroup(name)
		gs = append(gs, s.NewGroup("late"))
		var out []uint64
		for range 8 {
			for _, o := range gs {
				o.Rand().Uint64()
			}
			s.Root().Rand().Uint64()
			out = append(out, g.Rand().Uint64())
		}
		return out
	}
	want := draws(1, "primary", 0)
	if got := draws(1, "primary", 3); !slices.Equal(got, want) {
		t.Errorf("with three more domains drawing, primary drew %v, want %v", got, want)
	}
	if got := draws(1, "secondary", 0); slices.Equal(got, want) {
		t.Error("secondary drew primary's sequence")
	}
	if got := draws(2, "primary", 0); slices.Equal(got, want) {
		t.Error("seed 2 drew seed 1's sequence")
	}
}
