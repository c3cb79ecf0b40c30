package pthread

import (
	"fmt"

	"repro/internal/kernel"
)

// Mutex is an interposed pthread_mutex_t. The acquire-or-enqueue decision
// runs inside a deterministic section; parked waiters are granted the lock
// on unlock in queue order (FIFO under the paper's futex modification), so
// the acquisition sequence replays identically on the secondary.
type Mutex struct {
	lib     *Lib
	id      uint64
	locked  bool
	owner   *kernel.Task
	waiters []*kernel.Waiter
}

// NewMutex creates a mutex.
func (l *Lib) NewMutex() *Mutex {
	return &Mutex{lib: l, id: l.newID()}
}

// ID returns the mutex's object identifier (its "address" in det logs).
func (m *Mutex) ID() uint64 { return m.id }

// Locked reports whether the mutex is held.
func (m *Mutex) Locked() bool { return m.locked }

// Owner returns the holding task, or nil.
func (m *Mutex) Owner() *kernel.Task { return m.owner }

// Lock acquires the mutex for t (pthread_mutex_lock).
func (m *Mutex) Lock(t *kernel.Task) {
	m.lib.charge(t)
	m.lib.order.take(t, m.id, false)
	m.lib.det.Enter(t, OpMutexLock, m.id)
	w := m.take(t)
	m.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// take gives the mutex to t, or queues t for it and returns the wait record
// to park on.
func (m *Mutex) take(t *kernel.Task) *kernel.Waiter {
	if !m.locked {
		m.locked, m.owner = true, t
		return nil
	}
	w := t.Waiter()
	m.waiters = append(m.waiters, w)
	return w
}

// TryLock attempts the lock without blocking (pthread_mutex_trylock),
// reporting whether it was acquired; the result replicates (Lib.acquired).
func (m *Mutex) TryLock(t *kernel.Task) bool {
	m.lib.charge(t)
	m.lib.det.Enter(t, OpMutexTrylock, m.id)
	ok := m.lib.acquired(t, !m.locked)
	var w *kernel.Waiter
	if ok {
		m.lib.order.take(t, m.id, true)
		w = m.take(t)
	}
	m.lib.det.Exit(t, outcome(ok))
	if w != nil {
		w.Park()
	}
	return ok
}

// handTo gives the mutex to w's task inside the section of the wake-up
// that dequeued w from a condition variable (wait morphing): at once if the
// mutex is free, else behind the tasks already queued, for Unlock to grant
// in turn. Either way the task wakes owning the mutex, so its wait records
// no mutex_lock, and the locks it still holds get edges into the mutex.
func (m *Mutex) handTo(w *kernel.Waiter) {
	m.lib.order.take(w.Task(), m.id, false)
	if m.locked {
		m.waiters = append(m.waiters, w)
		return
	}
	m.locked = true
	m.owner = w.Task()
	w.Grant(0)
}

// Unlock releases the mutex (pthread_mutex_unlock — NOT interposed, per the
// paper's §3.2 list). If tasks are queued, ownership is handed directly to
// one of them: the queue head under FIFO hand-off, an arbitrary waiter
// under the stock-futex ablation.
func (m *Mutex) Unlock(t *kernel.Task) {
	m.lib.order.release(t, m.id)
	m.unlock(t)
}

// unlock is Unlock but for the lock-order record, which a condition wait
// updates itself.
func (m *Mutex) unlock(t *kernel.Task) {
	if m.owner != t {
		panic(fmt.Sprintf("pthread: unlock of mutex %d by non-owner %q", m.id, t.Name()))
	}
	m.lib.charge(t)
	if len(m.waiters) == 0 {
		m.locked = false
		m.owner = nil
		return
	}
	i := m.lib.pickWaiter(len(m.waiters))
	w := m.waiters[i]
	m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
	m.owner = w.Task()
	w.Grant(0)
}
