package sim

import (
	"testing"
	"time"
)

// The sim layer's micro-benchmarks (make bench-sim): host ns and allocations
// per engine operation, the numbers under every host_* metric of the
// repository benchmark.

// BenchmarkSleepSwitch is a lone process that sleeps and is itself the next
// to run: a block point with no switch in it.
func BenchmarkSleepSwitch(b *testing.B) {
	s := New(1)
	defer s.Shutdown()
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunFor(time.Duration(b.N) * time.Microsecond); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitWake is a wake-up and the switch it causes: two processes
// hand a token back and forth through two wait queues.
func BenchmarkWaitWake(b *testing.B) {
	s := New(1)
	defer s.Shutdown()
	var ping, pong WaitQueue
	n := 0
	bounce := func(mine, other *WaitQueue) func(*Proc) {
		return func(p *Proc) {
			for {
				mine.Wait(p)
				if n++; n == b.N {
					s.Stop()
				}
				other.WakeOne(0)
			}
		}
	}
	s.Spawn("ping", bounce(&ping, &pong))
	s.Spawn("pong", bounce(&pong, &ping))
	s.Schedule(0, func() { ping.WakeOne(0) }) // both are parked by now
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != ErrStopped {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff is a wake-up and a switch with nothing warm: 300
// processes pass a token round-robin, so every switch is out of one process
// and into another whose stack has not run for 299 switches.
func BenchmarkProcHandoff(b *testing.B) {
	s := New(1)
	defer s.Shutdown()
	const ring = 300
	queues := make([]WaitQueue, ring)
	n := 0
	for i := range queues {
		mine, next := &queues[i], &queues[(i+1)%ring]
		s.Spawn("p", func(p *Proc) {
			for {
				mine.Wait(p)
				if n++; n == b.N {
					s.Stop()
				}
				next.WakeOne(0)
			}
		})
	}
	s.Schedule(0, func() { queues[0].WakeOne(0) }) // everyone is parked by now
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != ErrStopped {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFire schedules a one-shot callback and fires it, with a
// thousand others pending.
func BenchmarkScheduleFire(b *testing.B) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Schedule(time.Hour+time.Duration(i), func() {})
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, fn)
		s.RunFor(time.Microsecond)
	}
}

// BenchmarkEventReset re-arms one owned event, the retransmission-timer
// pattern: each Reset cancels the pending firing and queues another.
func BenchmarkEventReset(b *testing.B) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Schedule(time.Hour+time.Duration(i), func() {})
	}
	var e Event
	e.Init(s.Root(), func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(time.Second)
	}
}
