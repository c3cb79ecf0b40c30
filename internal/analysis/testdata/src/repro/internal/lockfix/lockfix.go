// Package lockfix is the golden fixture for the lockorder analyzer:
// inconsistent acquisition orders across the lock graph are potential
// deadlocks.
package lockfix

import (
	"repro/internal/kernel"
	"repro/internal/pthread"
)

type S struct {
	a, b *pthread.Mutex
}

// f establishes the order a -> b.
func (s *S) f(t *kernel.Task) {
	s.a.Lock(t)
	s.b.Lock(t)
	s.b.Unlock(t)
	s.a.Unlock(t)
}

// g acquires in the opposite order, closing the cycle a -> b -> a.
func (s *S) g(t *kernel.Task) {
	s.b.Lock(t)
	s.a.Lock(t) // want "lock-order cycle"
	s.a.Unlock(t)
	s.b.Unlock(t)
}

// h repeats f's order: consistent, no new finding.
func (s *S) h(t *kernel.Task) {
	s.a.Lock(t)
	s.b.Lock(t)
	s.b.Unlock(t)
	s.a.Unlock(t)
}

type R struct{ m *pthread.Mutex }

// again self-deadlocks: pthread mutexes are not reentrant.
func (r *R) again(t *kernel.Task) {
	r.m.Lock(t)
	r.m.Lock(t) // want "already held"
	r.m.Unlock(t)
	r.m.Unlock(t)
}

// branching locks the same mutex on alternative arms: no reacquisition,
// because only one arm executes.
func (r *R) branching(t *kernel.Task, cond bool) {
	if cond {
		r.m.Lock(t)
		r.m.Unlock(t)
	} else {
		r.m.Lock(t)
		r.m.Unlock(t)
	}
}

// server is the mutation audit's memcached plant (DESIGN.md §10): the
// accept loop holds the backlog mutex into the store's write lock, a
// worker holds the store's read lock into the backlog mutex. No seeded
// schedule lines the two orders up, so no test, golden or chaos run
// deadlocks on it; only this check sees it.
type server struct {
	mu    *pthread.Mutex
	store *pthread.RWLock
}

func (s *server) accept(t *kernel.Task) {
	s.mu.Lock(t)
	s.store.WrLock(t)
	s.store.WrUnlock(t)
	s.mu.Unlock(t)
}

func (s *server) worker(t *kernel.Task) {
	s.store.RdLock(t)
	s.mu.Lock(t) // want "lock-order cycle"
	s.store.RdUnlock(t)
	s.mu.Unlock(t)
}
