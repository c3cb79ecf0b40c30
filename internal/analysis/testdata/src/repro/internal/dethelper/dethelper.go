// Package dethelper is the golden fixture for detsection's
// interprocedural layer: forbidden operations hidden behind helper
// calls made inside a section. A purely syntactic check would only see
// constructs written between Enter and Exit themselves.
package dethelper

import (
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
)

type state struct {
	det  pthread.Det
	ring *shm.Ring
	ch   chan int
	n    int
}

// spawnWorker reaches a goroutine spawn two hops deep.
func (s *state) spawnWorker() { s.kick() }

func (s *state) kick() { go s.work() }

func (s *state) work() { s.n++ }

// notify does a channel send: a section body must not reach it.
func (s *state) notify() { s.ch <- s.n }

// forward re-enters the mailbox one hop down.
func (s *state) forward(m shm.Message) { s.ring.TrySend(m) }

// bump only touches local state: safe to call from a section.
func (s *state) bump() { s.n++ }

func (s *state) bad(t *kernel.Task) {
	s.det.Enter(t, pthread.OpMutexLock, 1)
	s.spawnWorker()          // want "can reach a goroutine spawn"
	s.forward(shm.Message{}) // want "can reach a call into the shared-memory mailbox"
	s.det.Exit(t, 0)
}

// badNamed makes a named method the whole section body: judged by its
// summary, not its syntax.
func (s *state) badNamed(t *kernel.Task) {
	s.det.Enter(t, pthread.OpMutexLock, 2)
	s.notify() // want "call to notify inside a deterministic section can reach a channel operation"
	s.det.Exit(t, 0)
}

// good: helpers that only update local state are fine at any depth.
func (s *state) good(t *kernel.Task) {
	s.det.Enter(t, pthread.OpMutexLock, 3)
	s.bump()
	s.det.Exit(t, 0)
	// Outside the section every helper is unrestricted.
	s.spawnWorker()
	s.notify()
	s.forward(shm.Message{})
}

// goodNamed: a named body with a clean summary.
func (s *state) goodNamed(t *kernel.Task) {
	s.det.Enter(t, pthread.OpMutexLock, 4)
	s.bump()
	s.det.Exit(t, 0)
}

// deferred builds a closure around a channel send without running it:
// the effect belongs to the literal, not to deferred's own summary, so
// calling deferred from a section is fine (flow_test pins this down).
func (s *state) deferred() func() {
	return func() { s.ch <- s.n }
}

// ping/pong are mutually recursive with a channel send in the cycle:
// the SCC fixpoint must converge and give both the effect.
func (s *state) ping(n int) {
	if n > 0 {
		s.pong(n - 1)
	}
}

func (s *state) pong(n int) {
	if n > 0 {
		s.ping(n - 1)
	}
	s.ch <- n
}
