// Package detfix is the golden fixture for the detsection analyzer:
// deterministic sections — the statements between Det.Enter and
// Det.Exit — must stay short, local, non-blocking, and closed on every
// path (Figure 3).
package detfix

import (
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

type state struct {
	det  pthread.Det
	ring *shm.Ring
	n    int
}

func work() {}

func (s *state) bad(t *kernel.Task, ch chan int, p *sim.Proc) {
	s.det.Enter(t, pthread.OpMutexLock, 1)
	go work() // want "goroutine spawned inside a deterministic section"
	ch <- s.n // want "channel send inside a deterministic section"
	s.n = <-ch // want "channel receive inside a deterministic section"
	close(ch) // want "close of a channel inside a deterministic section"
	s.ring.TrySend(shm.Message{}) // want "shared-memory mailbox"
	s.det.Exit(t, 0)
}

func (s *state) badSelect(t *kernel.Task, ch chan int) {
	s.det.Enter(t, pthread.OpMutexLock, 2)
	select { // want "select inside a deterministic section"
	case v := <-ch:
		s.n = v
	default:
	}
	s.det.Exit(t, 0)
}

// settle runs inside the section as an argument of Exit.
func (s *state) settle() uint64 {
	s.ring.TrySend(shm.Message{})
	return 0
}

// resolveSettle: the settling update — here evaluated as Exit's
// argument — runs inside the deterministic section; the blocking part
// under `!Replay` runs outside the det-section lock and MAY block (that
// is its purpose, §3.3) — only the section is policed.
func (s *state) resolveSettle(t *kernel.Task, ch chan int) uint64 {
	if !s.det.Replay(t, pthread.OpSyscall, 3) {
		<-ch // the blocking part parks outside the lock: not flagged
		s.det.Enter(t, pthread.OpSyscall, 3)
	}
	return s.det.Exit(t, s.settle()) // want "can reach a call into the shared-memory mailbox"
}

// spanInSection: the zero-copy reservation API is still the mailbox.
// Claiming a span (which can block on ring backpressure) or writing one
// inside a section is the same re-entry the wrapper sends were banned
// for.
func (s *state) spanInSection(t *kernel.Task, sp shm.Span) {
	s.det.Enter(t, pthread.OpMutexLock, 5)
	s.ring.TryReserve(1, 64) // want "shared-memory mailbox"
	sp.Put(shm.Message{})    // want "shared-memory mailbox"
	s.det.Exit(t, 0)
}

// closureInSection: a closure built inside a section is assumed to run
// inside it.
func (s *state) closureInSection(t *kernel.Task, ch chan int) {
	s.det.Enter(t, pthread.OpMutexLock, 6)
	func() {
		ch <- s.n // want "channel send inside a deterministic section"
	}()
	s.det.Exit(t, 0)
}

// earlyReturn leaves on the busy path with the section still open: the
// det-section lock stays held and the tuple is never written.
func (s *state) earlyReturn(t *kernel.Task) bool {
	s.det.Enter(t, pthread.OpMutexLock, 7) // want "can reach a return without its Exit"
	if s.n > 0 {
		return false
	}
	s.n++
	s.det.Exit(t, 0)
	return true
}

// fallsOff opens a section and forgets it.
func (s *state) fallsOff(t *kernel.Task) {
	s.det.Enter(t, pthread.OpMutexLock, 8) // want "can reach a return without its Exit"
	s.n++
}

// replayLeak: a Replay that reported true has the section open too.
func (s *state) replayLeak(t *kernel.Task) {
	if s.det.Replay(t, pthread.OpSyscall, 9) { // want "can reach a return without its Exit"
		return
	}
	s.det.Enter(t, pthread.OpSyscall, 9)
	s.det.Exit(t, 0)
}

// good: sections that only update local state and close on every path,
// with mailbox traffic moved after the section.
func (s *state) good(t *kernel.Task, p *sim.Proc) {
	var out *shm.Message
	s.det.Enter(t, pthread.OpMutexLock, 4)
	if s.n > 0 {
		s.n++
		out = &shm.Message{Kind: 1, Size: s.n}
	}
	s.det.Exit(t, 0)
	if out != nil {
		s.ring.Send(p, *out)
	}
}

// goodBranches closes the section in each arm, and with a deferred Exit.
func (s *state) goodBranches(t *kernel.Task) uint64 {
	s.det.Enter(t, pthread.OpMutexLock, 10)
	if s.n > 0 {
		return s.det.Exit(t, 1)
	}
	s.det.Exit(t, 0)

	s.det.Enter(t, pthread.OpMutexLock, 11)
	defer s.det.Exit(t, 0)
	if s.n < 0 {
		return 2
	}
	return 0
}
