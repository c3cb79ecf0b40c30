package chaos_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kernel"
)

// TestParseTunes: a tune event sets, on its backup slot's kernel alone, the
// wake-preemption probability, the context-switch and wake costs, the
// idle-wake bounds, the core count and the stream salt; any subset of them,
// in any order. Another slot's kernel boots as configured, and the schedule
// without its kills keeps both tunes. A tune of the primary or of any
// backup, an odd key/value list, an unknown key and a value out of range
// are rejected.
func TestParseTunes(t *testing.T) {
	s, err := chaos.Parse("tune backup1 preempt 0.3 cs 3us wake 4us idle 50us..15ms cores 24 salt 9; kill primary @2s; tune backup2 salt 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tunes) != 2 || len(s.Kills) != 1 {
		t.Fatalf("parsed %d tunes and %d kills, want 2 and 1", len(s.Tunes), len(s.Kills))
	}
	if got, want := s.WithoutKills(), "tune backup1 preempt 0.3 cs 3us wake 4us idle 50us..15ms cores 24 salt 9; tune backup2 salt 5"; got != want {
		t.Errorf("without its kills the schedule is %q, want %q", got, want)
	}
	base := kernel.Config{Name: "secondary", Params: kernel.DefaultParams(), Cores: 0}
	want := base
	want.Params.WakePreemptProb, want.Params.ContextSwitch, want.Params.WakeBase = 0.3, 3*time.Microsecond, 4*time.Microsecond
	want.Params.IdleWakeMin, want.Params.IdleWakeMax, want.Cores = 50*time.Microsecond, 15*time.Millisecond, 24
	if got, salt := s.Tuned(1, base); got != want || salt != 9 {
		t.Errorf("slot 1 boots %+v salted %d, want %+v salted 9", got, salt, want)
	}
	if got, salt := s.Tuned(0, base); got != base || salt != 0 {
		t.Errorf("the primary boots %+v salted %d, want it untouched", got, salt)
	}
	if got, salt := s.Tuned(2, base); got != base || salt != 5 {
		t.Errorf("slot 2 boots %+v salted %d, want only its salt set", got, salt)
	}
	for _, bad := range []string{
		"tune primary salt 1",
		"tune backup salt 1",
		"tune backup0 salt 1",
		"tune backup1",
		"tune backup1 salt",
		"tune backup1 speed 2",
		"tune backup1 preempt 1.5",
		"tune backup1 cs -1us",
		"tune backup1 idle 5ms..1ms",
		"tune backup1 idle 5ms",
		"tune backup1 cores 0",
		"tune backup1 salt -3",
	} {
		if _, err := chaos.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}
