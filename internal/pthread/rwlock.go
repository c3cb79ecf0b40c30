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
	rw.lib.order.take(t, rw.id, false)
	rw.lib.det.Enter(t, OpRWRdLock, rw.id)
	w := rw.take(t, false)
	rw.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// take admits t as a reader or the writer, or queues it and returns the
// wait record to park on.
func (rw *RWLock) take(t *kernel.Task, write bool) *kernel.Waiter {
	switch {
	case write && rw.canWrite():
		rw.writer = t
	case !write && rw.canRead():
		rw.readers++
	default:
		w := t.Waiter()
		rw.waiters = append(rw.waiters, rwWaiter{w: w, write: write})
		return w
	}
	return nil
}

// TryRdLock attempts a read acquisition without blocking
// (pthread_rwlock_tryrdlock); the result replicates (Lib.acquired).
func (rw *RWLock) TryRdLock(t *kernel.Task) bool { return rw.try(t, OpRWTryRdLock, false) }

// WrLock acquires the lock for writing (pthread_rwlock_wrlock).
func (rw *RWLock) WrLock(t *kernel.Task) {
	rw.lib.charge(t)
	rw.lib.order.take(t, rw.id, false)
	rw.lib.det.Enter(t, OpRWWrLock, rw.id)
	w := rw.take(t, true)
	rw.lib.det.Exit(t, 0)
	if w != nil {
		w.Park()
	}
}

// TryWrLock attempts a write acquisition without blocking
// (pthread_rwlock_trywrlock); the result replicates (Lib.acquired).
func (rw *RWLock) TryWrLock(t *kernel.Task) bool { return rw.try(t, OpRWTryWrLock, true) }

func (rw *RWLock) try(t *kernel.Task, op Op, write bool) bool {
	rw.lib.charge(t)
	rw.lib.det.Enter(t, op, rw.id)
	free := rw.canRead()
	if write {
		free = rw.canWrite()
	}
	ok := rw.lib.acquired(t, free)
	var w *kernel.Waiter
	if ok {
		rw.lib.order.take(t, rw.id, true)
		w = rw.take(t, write)
	}
	rw.lib.det.Exit(t, outcome(ok))
	if w != nil {
		w.Park()
	}
	return ok
}

// RdUnlock releases a read acquisition (pthread_rwlock_unlock — not
// interposed).
func (rw *RWLock) RdUnlock(t *kernel.Task) {
	if rw.readers <= 0 {
		panic(fmt.Sprintf("pthread: rwlock %d read-unlock with no readers", rw.id))
	}
	rw.lib.charge(t)
	rw.lib.order.release(t, rw.id)
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
	rw.lib.order.release(t, rw.id)
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
		rw.waiters[0].w.Grant(0)
		n = 1
	} else {
		for n < len(rw.waiters) && !rw.waiters[n].write {
			rw.readers++
			rw.waiters[n].w.Grant(0)
			n++
		}
	}
	// Slide down rather than re-slice: waiters[n:] would lose the array's
	// front and regrow it under the next contention.
	rw.waiters = append(rw.waiters[:0], rw.waiters[n:]...)
}
