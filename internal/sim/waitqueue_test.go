package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWaitQueueFIFO(t *testing.T) {
	s := New(1)
	q := new(WaitQueue)
	var woken []int
	for i := 0; i < 4; i++ {
		i := i
		s.SpawnAfter("waiter", time.Duration(i)*time.Millisecond, func(p *Proc) {
			q.Wait(p)
			woken = append(woken, i)
		})
	}
	s.Schedule(10*time.Millisecond, func() {
		for q.WakeOne(0) != nil {
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range woken {
		if v != i {
			t.Fatalf("wake order %v, want FIFO", woken)
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	s := New(1)
	q := new(WaitQueue)
	var timedOut, wokenAt Time
	var wokenOK bool
	s.Spawn("timeout", func(p *Proc) {
		if q.WaitTimeout(p, 5*time.Millisecond) {
			t.Error("WaitTimeout reported woken, want timeout")
		}
		timedOut = p.Now()
	})
	s.Spawn("woken", func(p *Proc) {
		wokenOK = q.WaitTimeout(p, time.Hour)
		wokenAt = p.Now()
	})
	s.Schedule(8*time.Millisecond, func() { q.WakeOne(0) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if timedOut != Time(5*time.Millisecond) {
		t.Errorf("timed out at %v, want 5ms", timedOut)
	}
	if !wokenOK || wokenAt != Time(8*time.Millisecond) {
		t.Errorf("woken=%v at %v, want woken at 8ms", wokenOK, wokenAt)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending (leaked timer?)", s.Pending())
	}
}

func TestWakeDelay(t *testing.T) {
	s := New(1)
	q := new(WaitQueue)
	var wokeAt Time
	s.Spawn("w", func(p *Proc) {
		q.Wait(p)
		wokeAt = p.Now()
	})
	s.Schedule(time.Millisecond, func() { q.WakeOne(3 * time.Millisecond) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != Time(4*time.Millisecond) {
		t.Errorf("woke at %v, want 4ms (1ms wake + 3ms delay)", wokeAt)
	}
}

func TestWakeAll(t *testing.T) {
	s := New(1)
	q := new(WaitQueue)
	woken := 0
	for i := 0; i < 7; i++ {
		s.Spawn("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	s.Schedule(time.Millisecond, func() {
		if n := q.WakeAll(0); n != 7 {
			t.Errorf("WakeAll woke %d, want 7", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 7 {
		t.Errorf("%d procs resumed, want 7", woken)
	}
}

func TestWakeOneEmptyQueue(t *testing.T) {
	q := new(WaitQueue)
	if p := q.WakeOne(0); p != nil {
		t.Errorf("WakeOne on empty queue = %v, want nil", p)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires the full context-switch traces to be identical.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		s := New(seed)
		var trace []string
		s.OnSwitch = func(at Time, name string) {
			trace = append(trace, at.String()+"/"+name)
		}
		q := new(WaitQueue)
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 20; j++ {
					switch p.Sim().Root().Rand().IntN(3) {
					case 0:
						p.Sleep(time.Duration(p.Sim().Root().Rand().IntN(1000)) * time.Microsecond)
					case 1:
						if q.Len() > 0 {
							q.WakeOne(time.Duration(p.Sim().Root().Rand().IntN(100)) * time.Microsecond)
						}
						p.Sleep(time.Microsecond)
					case 2:
						q.WaitTimeout(p, time.Duration(p.Sim().Root().Rand().IntN(2000))*time.Microsecond)
					}
				}
			})
		}
		s.Schedule(time.Second, func() { q.WakeAll(0) })
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
}

// TestWaitQueueQuick property-tests that with random wait/wake sequences the
// queue never loses or duplicates a waiter: every spawned waiter is woken
// exactly once (by wake or timeout) once enough wakes are issued.
func TestWaitQueueQuick(t *testing.T) {
	f := func(seed int64, nWaiters uint8) bool {
		n := int(nWaiters%16) + 1
		s := New(seed)
		q := new(WaitQueue)
		resumed := make(map[int]int)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			i := i
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			s.SpawnAfter("w", d, func(p *Proc) {
				if rng.Intn(2) == 0 {
					q.Wait(p)
				} else {
					q.WaitTimeout(p, time.Duration(rng.Intn(10000))*time.Microsecond)
				}
				resumed[i]++
			})
		}
		// Issue generous wake-ups so nothing is parked forever.
		for i := 0; i < 2*n; i++ {
			s.Schedule(time.Duration(6000+i*100)*time.Microsecond, func() { q.WakeOne(0) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(resumed) != n {
			return false
		}
		for _, c := range resumed {
			if c != 1 {
				return false
			}
		}
		return s.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
