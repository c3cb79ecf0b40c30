// Package lockfix is the golden fixture for the lockorder analyzer:
// inconsistent acquisition orders across the lock graph are potential
// deadlocks, including orders threaded through calls, the "flushing"
// flush-serialization pseudo-lock, and blocking shm ring operations.
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
	mu       *pthread.Mutex
	flushing bool
	ring     *shm.Ring
}

// flush holds the flush-serialization flag across the blocking ring
// send: the PR 1 pattern, edge flushing -> ring.
func (p *P) flush(proc *sim.Proc, m shm.Message) {
	p.flushing = true
	p.ring.Send(proc, m)
	p.flushing = false
}

// lockedFlush calls flush while holding mu, adding mu -> flushing
// through the call graph.
func (p *P) lockedFlush(t *kernel.Task, proc *sim.Proc, m shm.Message) {
	p.mu.Lock(t)
	p.flush(proc, m) // want "lock-order cycle"
	p.mu.Unlock(t)
}

// flagFirst takes mu while flushing is held: flushing -> mu, closing the
// cycle with lockedFlush's mu -> flushing.
func (p *P) flagFirst(t *kernel.Task) {
	p.flushing = true
	p.mu.Lock(t)
	p.mu.Unlock(t)
	p.flushing = false
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
