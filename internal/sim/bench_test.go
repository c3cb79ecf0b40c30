package sim

import (
	"testing"
	"time"
)

// The sim layer's micro-benchmarks (make bench-sim): host ns and allocations
// per engine operation, the numbers under every host_* metric of the
// repository benchmark.

// BenchmarkSleepSwitch is one process switch: a sleeping process is resumed
// and goes back to sleep.
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

// BenchmarkScheduleCancel schedules a one-shot callback and cancels it, the
// life of a timer that never fires; compaction is in the figure.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Schedule(time.Hour+time.Duration(i), func() {})
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Second, fn).Cancel()
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
	e.Init(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(time.Second)
	}
}
