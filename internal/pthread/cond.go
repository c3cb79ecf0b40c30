package pthread

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// cvWaiter is one task blocked in cond_wait/cond_timedwait. Its wait
// record is its own rather than the task's: a timed waiter stays queued on
// the condition variable while the task takes the det-section lock that
// settles the wait (and may have to park for it). Records are recycled per
// library.
type cvWaiter struct {
	w     kernel.Waiter
	state uint64 // 0 while waiting, then OutcomeSignaled / OutcomeTimedOut
	timer sim.Event
	mu    *Mutex // an untimed wait's mutex, which its wake-up hands over; nil if timed
}

// newCVWaiter takes a condition-wait record from the library's free list
// and arms it for t, waiting untimed on mu or, with mu nil, timed.
func (l *Lib) newCVWaiter(t *kernel.Task, mu *Mutex) *cvWaiter {
	var cw *cvWaiter
	if n := len(l.cvFree); n > 0 {
		cw, l.cvFree = l.cvFree[n-1], l.cvFree[:n-1]
	} else {
		cw = new(cvWaiter)
		cw.timer.Init(l.kern.Sim(), cw.onTimer)
	}
	cw.state, cw.mu = 0, mu
	cw.w.Arm(t)
	return cw
}

// onTimer is cond_timedwait's deadline: it grants the waiter so that it
// wakes and settles the timeout-versus-signal race in a det section.
func (cw *cvWaiter) onTimer() {
	if cw.state == 0 {
		cw.w.Grant(0)
	}
}

// Cond is an interposed pthread_cond_t. Per §3.3, the accesses to the
// internal condition-variable state are protected by deterministic
// sections, which synchronizes the wake-up sequence between primary and
// secondary. An untimed wait records one section, the wait that enqueues
// it: the wake-up that dequeues it also hands it the mutex (wait morphing)
// — at once if the mutex is free, else by queueing it FIFO behind the
// mutex's waiters — so the woken thread returns owning the mutex and
// records no mutex_lock. A signal or broadcast records one section, and
// only when it finds a waiter: a wake-up that wakes nobody changes nothing,
// so it records nothing. Which waiters a wake-up dequeues is decided inside
// its section; a replaying side never runs the signaler's call at all — its
// replayer applies each recorded wake-up (Wake) when the tuple comes up.
// Because a wake-up changes the mutex's queue, every section of a condition
// variable is sequenced on its mutex (Lib.SeqKey). cond_timedwait records
// a cond_resolve section that settles the timeout-versus-signal race
// through the deterministic section order and the recorded outcome, then
// re-locks the mutex with a mutex_lock of its own.
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

// Wait releases m, blocks until signaled, and returns owning m, which the
// wake-up hands it (pthread_cond_wait). m must be held by t.
func (c *Cond) Wait(t *kernel.Task, m *Mutex) {
	c.wait(t, m, -1)
}

// TimedWait is Wait with a relative timeout (pthread_cond_timedwait: the
// absolute deadline agrees across replicas because gettimeofday results
// are synchronized, §3.3). It reports true if signaled and false if the
// wait timed out.
func (c *Cond) TimedWait(t *kernel.Task, m *Mutex, d time.Duration) bool {
	return c.wait(t, m, d) == OutcomeSignaled
}

func (c *Cond) wait(t *kernel.Task, m *Mutex, d time.Duration) uint64 {
	c.lib.charge(t)
	op, untimed := OpCondWait, m
	if d >= 0 {
		op, untimed = OpCondTimedwait, nil
	}
	det := c.lib.det
	cw := c.lib.newCVWaiter(t, untimed)
	c.mu = m
	det.Enter(t, op, c.id)
	c.waiters = append(c.waiters, cw)
	det.Exit(t, 0)
	m.Unlock(t)
	if d < 0 {
		// Only a signal ends an untimed wait, and the signal's own section
		// dequeued the record and handed it the mutex: the grant that ends
		// the park makes t the owner, with no race left to settle.
		cw.w.Park()
		c.lib.cvFree = append(c.lib.cvFree, cw)
		return OutcomeSignaled
	}
	cw.timer.Reset(d)
	if !det.Replay(t, OpCondResolve, c.id) {
		cw.w.Park()
		det.Enter(t, OpCondResolve, c.id)
	}
	out := det.Exit(t, c.settle(cw))
	cw.timer.Cancel()
	cw.w.Disarm()
	c.lib.cvFree = append(c.lib.cvFree, cw)
	m.Lock(t)
	return out
}

// settle decides a timed wait's outcome inside its cond_resolve section. A
// waiter that was signaled (even if its timer also fired) consumes the
// signal; otherwise it removes itself from the queue and reports timeout.
// The mutation runs identically during secondary replay, keeping the
// mirrored queue state consistent.
func (c *Cond) settle(cw *cvWaiter) uint64 {
	if cw.state == OutcomeSignaled {
		return OutcomeSignaled
	}
	for i, x := range c.waiters {
		if x == cw {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	cw.state = OutcomeTimedOut
	return OutcomeTimedOut
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
// if all, and marks each signaled. An untimed waiter is handed its mutex
// (Mutex.handTo); a timed one is granted, to settle its wait and re-lock.
// It returns the wake-up's outcome: the woken task's TID (0: nobody
// waited), or the number woken.
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

// wake ends cw's wait as Wake dequeues it.
func (cw *cvWaiter) wake() {
	cw.state = OutcomeSignaled
	if cw.mu != nil {
		cw.mu.handTo(&cw.w)
		return
	}
	cw.w.Grant(0)
}
