// Package lockfix is the golden fixture for the lockorder analyzer:
// inconsistent acquisition orders across the lock graph are potential
// deadlocks, including orders threaded through calls and blocking shm ring
// operations.
package lockfix

import (
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
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

type P struct {
	mu   *pthread.Mutex
	ring *shm.Ring
}

// reserveOrdered blocks in Reserve while holding mu: the claim wait is
// the same backpressure park the wrapper sends had, so it adds the
// transient edge mu -> ring. Consistent with the existing order; the
// span is settled, so no leak either.
func (p *P) reserveOrdered(t *kernel.Task, proc *sim.Proc, m shm.Message) {
	p.mu.Lock(t)
	sp := p.ring.Reserve(proc, 1, int64(m.Size))
	sp.Put(m)
	sp.Commit()
	p.mu.Unlock(t)
}

// leak reserves a span and returns without Commit or Abort: the open
// span jams the ring's publication sequence forever.
func (p *P) leak(proc *sim.Proc, m shm.Message) {
	sp := p.ring.Reserve(proc, 1, int64(m.Size)) // want "never committed or aborted"
	sp.Put(m)
}

// tryLeak leaks a nonblocking claim the same way; the Open check does
// not settle anything.
func (p *P) tryLeak(m shm.Message) {
	if sp := p.ring.TryReserve(1, int64(m.Size)); sp.Open() { // want "never committed or aborted"
		sp.Put(m)
	}
}

// settled commits on the success path and aborts on the full path:
// every exit settles the span, no finding.
func (p *P) settled(proc *sim.Proc, m shm.Message) {
	sp := p.ring.Reserve(proc, 1, int64(m.Size))
	if sp.Put(m) {
		sp.Commit()
	} else {
		sp.Abort()
	}
}

type holder struct{ span shm.Span }

// handoff parks the open span in a field for a flush loop to settle
// later — the recorder's pattern. The escape transfers responsibility,
// so the leak check stays silent.
func (h *holder) handoff(r *shm.Ring, m shm.Message) {
	sp := r.TryReserve(1, int64(m.Size))
	if sp.Open() {
		sp.Put(m)
		h.span = sp
	}
}
