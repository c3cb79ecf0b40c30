// Package pthread is a fixture stub mirroring the interposed lock types of
// the real repro/internal/pthread. lockorder matches lock methods by name
// within a package path containing "internal/pthread", so fixtures
// importing this stub exercise the same code paths as the real tree.
package pthread

import "repro/internal/kernel"

// Mutex mirrors the interposed pthread_mutex_t.
type Mutex struct{ locked bool }

// Lock acquires the mutex.
func (m *Mutex) Lock(t *kernel.Task) { m.locked = true }

// Unlock releases the mutex.
func (m *Mutex) Unlock(t *kernel.Task) { m.locked = false }

// RWLock mirrors the interposed pthread_rwlock_t.
type RWLock struct{ readers int }

// RdLock acquires a read lock.
func (rw *RWLock) RdLock(t *kernel.Task) { rw.readers++ }

// RdUnlock releases a read lock.
func (rw *RWLock) RdUnlock(t *kernel.Task) { rw.readers-- }

// WrLock acquires the write lock.
func (rw *RWLock) WrLock(t *kernel.Task) {}

// WrUnlock releases the write lock.
func (rw *RWLock) WrUnlock(t *kernel.Task) {}
