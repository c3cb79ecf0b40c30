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
	var w *kernel.Waiter
	m.lib.det.Enter(t, OpMutexLock, m.id)
	if !m.locked {
		m.locked = true
		m.owner = t
	} else {
		w = t.Waiter()
		m.waiters = append(m.waiters, w)
	}
	m.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// TryLock attempts the lock without blocking (pthread_mutex_trylock),
// reporting whether it was acquired.
func (m *Mutex) TryLock(t *kernel.Task) bool {
	m.lib.charge(t)
	m.lib.det.Enter(t, OpMutexTrylock, m.id)
	ok := !m.locked
	if ok {
		m.locked = true
		m.owner = t
	}
	m.lib.det.Exit(t, 0)
	return ok
}

// Unlock releases the mutex (pthread_mutex_unlock — NOT interposed, per the
// paper's §3.2 list). If tasks are queued, ownership is handed directly to
// one of them: the queue head under FIFO hand-off, an arbitrary waiter
// under the stock-futex ablation.
func (m *Mutex) Unlock(t *kernel.Task) {
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
	w.Grant()
}
