package pthread

import (
	"fmt"

	"repro/internal/kernel"
)

// rwWaiter is one task queued on an RWLock, parked on its own wait record.
type rwWaiter struct {
	w     *kernel.Waiter
	write bool
}

// RWLock is an interposed pthread_rwlock_t. Acquisition decisions run in
// deterministic sections; queued waiters are granted strictly in FIFO
// order (readers are granted in consecutive batches), so reader/writer
// admission replays identically on the secondary.
type RWLock struct {
	lib     *Lib
	id      uint64
	readers int
	writer  *kernel.Task
	waiters []rwWaiter
}

// NewRWLock creates a reader-writer lock.
func (l *Lib) NewRWLock() *RWLock {
	return &RWLock{lib: l, id: l.newID()}
}

// ID returns the lock's object identifier.
func (rw *RWLock) ID() uint64 { return rw.id }

// Readers reports the number of active readers.
func (rw *RWLock) Readers() int { return rw.readers }

// Writer returns the active writer, or nil.
func (rw *RWLock) Writer() *kernel.Task { return rw.writer }

func (rw *RWLock) canRead() bool {
	return rw.writer == nil && len(rw.waiters) == 0
}

func (rw *RWLock) canWrite() bool {
	return rw.writer == nil && rw.readers == 0 && len(rw.waiters) == 0
}

// RdLock acquires the lock for reading (pthread_rwlock_rdlock). A reader
// queues behind any waiting writer, so writers do not starve.
func (rw *RWLock) RdLock(t *kernel.Task) {
	rw.lib.charge(t)
	var w *kernel.Waiter
	rw.lib.det.Enter(t, OpRWRdLock, rw.id)
	if rw.canRead() {
		rw.readers++
	} else {
		w = t.Waiter()
		rw.waiters = append(rw.waiters, rwWaiter{w: w})
	}
	rw.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// TryRdLock attempts a read acquisition without blocking
// (pthread_rwlock_tryrdlock).
func (rw *RWLock) TryRdLock(t *kernel.Task) bool {
	rw.lib.charge(t)
	rw.lib.det.Enter(t, OpRWTryRdLock, rw.id)
	ok := rw.canRead()
	if ok {
		rw.readers++
	}
	rw.lib.det.Exit(t, 0)
	return ok
}

// WrLock acquires the lock for writing (pthread_rwlock_wrlock).
func (rw *RWLock) WrLock(t *kernel.Task) {
	rw.lib.charge(t)
	var w *kernel.Waiter
	rw.lib.det.Enter(t, OpRWWrLock, rw.id)
	if rw.canWrite() {
		rw.writer = t
	} else {
		w = t.Waiter()
		rw.waiters = append(rw.waiters, rwWaiter{w: w, write: true})
	}
	rw.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// TryWrLock attempts a write acquisition without blocking
// (pthread_rwlock_trywrlock).
func (rw *RWLock) TryWrLock(t *kernel.Task) bool {
	rw.lib.charge(t)
	rw.lib.det.Enter(t, OpRWTryWrLock, rw.id)
	ok := rw.canWrite()
	if ok {
		rw.writer = t
	}
	rw.lib.det.Exit(t, 0)
	return ok
}

// RdUnlock releases a read acquisition (pthread_rwlock_unlock — not
// interposed).
func (rw *RWLock) RdUnlock(t *kernel.Task) {
	if rw.readers <= 0 {
		panic(fmt.Sprintf("pthread: rwlock %d read-unlock with no readers", rw.id))
	}
	rw.lib.charge(t)
	rw.readers--
	if rw.readers == 0 {
		rw.promote()
	}
}

// WrUnlock releases a write acquisition (pthread_rwlock_unlock — not
// interposed).
func (rw *RWLock) WrUnlock(t *kernel.Task) {
	if rw.writer != t {
		panic(fmt.Sprintf("pthread: rwlock %d write-unlock by non-writer %q", rw.id, t.Name()))
	}
	rw.lib.charge(t)
	rw.writer = nil
	rw.promote()
}

// promote grants the lock to queued waiters in FIFO order: either the
// writer at the queue head, or the consecutive run of readers up to the
// next writer.
func (rw *RWLock) promote() {
	if len(rw.waiters) == 0 {
		return
	}
	n := 0
	if rw.waiters[0].write {
		rw.writer = rw.waiters[0].w.Task()
		rw.waiters[0].w.Grant()
		n = 1
	} else {
		for n < len(rw.waiters) && !rw.waiters[n].write {
			rw.readers++
			rw.waiters[n].w.Grant()
			n++
		}
	}
	// Slide down rather than re-slice: waiters[n:] would lose the array's
	// front and regrow it under the next contention.
	rw.waiters = append(rw.waiters[:0], rw.waiters[n:]...)
}
