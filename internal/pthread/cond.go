package pthread

import (
	"slices"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// cvWaiter is one task blocked in cond_wait/cond_timedwait. Its wait
// record is its own rather than the task's: a timed waiter whose timer
// fired stays queued on the condition variable while the task takes the
// det-section lock of its timeout (and may have to park for it). Whatever
// dequeues the record — a wake-up, or the waiter's own timeout — hands it
// the mutex. Records are recycled per library.
type cvWaiter struct {
	w        kernel.Waiter
	mu       *Mutex // the mutex the dequeue hands over
	timer    sim.Event
	timedOut bool // its own timeout dequeued it, not a wake-up
}

// newCVWaiter takes a condition-wait record from the library's free list
// and arms it for t, waiting on mu.
func (l *Lib) newCVWaiter(t *kernel.Task, mu *Mutex) *cvWaiter {
	var cw *cvWaiter
	if n := len(l.cvFree); n > 0 {
		cw, l.cvFree = l.cvFree[n-1], l.cvFree[:n-1]
	} else {
		cw = new(cvWaiter)
		cw.timer.Init(l.kern.Domain(), func() { cw.w.Grant(0) })
	}
	cw.mu, cw.timedOut = mu, false
	cw.w.Arm(t)
	return cw
}

// Cond is an interposed pthread_cond_t. Per §3.3, the accesses to the
// internal condition-variable state are protected by deterministic
// sections, which synchronizes the wake-up sequence between primary and
// secondary. A wait records one section, the wait that enqueues it:
// whatever dequeues it also hands it the mutex (wait morphing) — at once if
// the mutex is free, else by queueing it FIFO behind the mutex's waiters —
// so the woken thread returns owning the mutex and records no mutex_lock.
// A signal or broadcast records one section, and only when it finds a
// waiter: a wake-up that wakes nobody changes nothing, so it records
// nothing. A timeout is one more wake-up, for the waiter alone: a signal
// cancels the waiter's timer; on expiry the waiter's own thread records a
// cond_timeout section, which dequeues it if it is still queued. Which
// waiters a wake-up dequeues is decided inside its section; a replaying
// side never runs the signaler's call, nor arms a timer — its replayer
// applies each recorded wake-up (Wake, TimeOut) when the tuple comes up.
// Because a wake-up changes the mutex's queue, every section of a
// condition variable is sequenced on its mutex (Lib.SeqKey).
type Cond struct {
	lib     *Lib
	id      uint64
	mu      *Mutex // the mutex its waiters hold: the object it is sequenced on
	waiters []*cvWaiter
}

// NewCond creates a condition variable.
func (l *Lib) NewCond() *Cond {
	c := &Cond{lib: l, id: l.newID()}
	l.conds = append(l.conds, c)
	return c
}

// ID returns the condition variable's object identifier.
func (c *Cond) ID() uint64 { return c.id }

// Waiters reports the number of tasks currently enqueued.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Queued returns the tasks currently enqueued, in queue order.
func (c *Cond) Queued() []*kernel.Task {
	ts := make([]*kernel.Task, len(c.waiters))
	for i, cw := range c.waiters {
		ts[i] = cw.w.Task()
	}
	return ts
}

// Wait releases m, blocks until signaled, and returns owning m, which the
// wake-up hands it (pthread_cond_wait). m must be held by t.
func (c *Cond) Wait(t *kernel.Task, m *Mutex) {
	c.wait(t, m, OpCondWait, 0)
}

// TimedWait is Wait with a relative timeout (pthread_cond_timedwait: the
// absolute deadline agrees across replicas because gettimeofday results
// are synchronized, §3.3). It reports true if a wake-up dequeued the wait
// and false if its timeout did; either way it returns owning m.
func (c *Cond) TimedWait(t *kernel.Task, m *Mutex, d time.Duration) bool {
	return c.wait(t, m, OpCondTimedwait, d)
}

func (c *Cond) wait(t *kernel.Task, m *Mutex, op Op, d time.Duration) bool {
	c.lib.charge(t)
	// m leaves t's held set for the wait: whatever dequeues it takes m
	// back for t (Mutex.handTo), the promotion that wakes it inside its
	// own section included.
	c.lib.order.release(t, m.id)
	det := c.lib.det
	cw := c.lib.newCVWaiter(t, m)
	c.mu = m
	det.Enter(t, op, c.id)
	c.waiters = append(c.waiters, cw)
	if op == OpCondTimedwait && det.Wakes() {
		cw.timer.Reset(d)
	}
	det.Exit(t, 0)
	m.unlock(t)
	cw.w.Park()
	if m.owner != t {
		// The timer ended the park. A wake-up may have dequeued the wait
		// since, queueing it on the held mutex; if not, the timeout does.
		cw.w.Arm(t)
		if slices.Contains(c.waiters, cw) {
			det.Enter(t, OpCondTimeout, c.id)
			det.Exit(t, c.TimeOut(func(w *kernel.Task) bool { return w == t }))
		}
		cw.w.Park()
	}
	c.lib.cvFree = append(c.lib.cvFree, cw)
	return !cw.timedOut
}

// TimeOut is a timed waiter's timeout, inside its cond_timeout section: it
// dequeues the wait whose task is picks — the waiter's own thread picks
// itself, a replayer the ft_pid the tuple names — and hands it its mutex.
// It returns the task's TID, or 0 if a wake-up dequeued the wait first.
func (c *Cond) TimeOut(is func(*kernel.Task) bool) uint64 {
	i := slices.IndexFunc(c.waiters, func(cw *cvWaiter) bool { return is(cw.w.Task()) })
	if i < 0 {
		return 0
	}
	cw := c.waiters[i]
	c.waiters = slices.Delete(c.waiters, i, i+1)
	cw.timedOut = true
	cw.mu.handTo(&cw.w)
	return uint64(cw.w.Task().TID())
}

// Signal wakes one waiter (pthread_cond_signal): the queue head under FIFO
// ordering, an arbitrary waiter under the stock-futex ablation.
func (c *Cond) Signal(t *kernel.Task) { c.signal(t, OpCondSignal) }

// Broadcast wakes every waiter in queue order (pthread_cond_broadcast).
func (c *Cond) Broadcast(t *kernel.Task) { c.signal(t, OpCondBroadcast) }

// signal returns before its section when nobody waits — a no-op, so its
// order against a concurrent wait does not matter — and on a side whose
// replayer applies the wake-ups (Det.Wakes).
func (c *Cond) signal(t *kernel.Task, op Op) {
	c.lib.charge(t)
	det := c.lib.det
	if len(c.waiters) == 0 || !det.Wakes() {
		return
	}
	det.Enter(t, op, c.id)
	det.Exit(t, c.Wake(op == OpCondBroadcast))
}

// Wake dequeues the waiter a signal picks, or every waiter in queue order
// if all, and hands each its mutex (Mutex.handTo). It returns the wake-up's
// outcome: the woken task's TID (0: nobody waited), or the number woken.
func (c *Cond) Wake(all bool) uint64 {
	if all {
		n := len(c.waiters)
		for _, cw := range c.waiters {
			cw.wake()
		}
		clear(c.waiters)
		c.waiters = c.waiters[:0]
		return uint64(n)
	}
	if len(c.waiters) == 0 {
		return 0
	}
	i := c.lib.pickWaiter(len(c.waiters))
	cw := c.waiters[i]
	c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
	cw.wake()
	return uint64(cw.w.Task().TID())
}

// wake ends cw's wait as Wake dequeues it: its timer, if any, stops.
func (cw *cvWaiter) wake() {
	cw.timer.Cancel()
	cw.mu.handTo(&cw.w)
}
