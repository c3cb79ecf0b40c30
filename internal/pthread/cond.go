package pthread

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// cvWaiter is one task blocked in cond_wait/cond_timedwait. Its wait
// record is its own rather than the task's: the waiter stays queued on the
// condition variable while the task takes the det-section lock that settles
// the wait (and may have to park for it). Records are recycled per library.
type cvWaiter struct {
	w     kernel.Waiter
	state uint64 // 0 while waiting, then OutcomeSignaled / OutcomeTimedOut
	timer sim.Event
}

// newCVWaiter takes a condition-wait record from the library's free list
// and arms it for t.
func (l *Lib) newCVWaiter(t *kernel.Task) *cvWaiter {
	var cw *cvWaiter
	if n := len(l.cvFree); n > 0 {
		cw, l.cvFree = l.cvFree[n-1], l.cvFree[:n-1]
	} else {
		cw = new(cvWaiter)
		cw.timer.Init(l.kern.Sim(), cw.onTimer)
	}
	cw.state = 0
	cw.w.Arm(t)
	return cw
}

// onTimer is cond_timedwait's deadline: it grants the waiter so that it
// wakes and settles the timeout-versus-signal race in a det section.
func (cw *cvWaiter) onTimer() {
	if cw.state == 0 {
		cw.w.Grant()
	}
}

// Cond is an interposed pthread_cond_t. Per §3.3, the accesses to the
// internal condition-variable state are protected by deterministic
// sections, which synchronizes the wake-up sequence between primary and
// secondary; the timeout-versus-signal race of cond_timedwait is resolved
// through the deterministic section order and the recorded outcome.
type Cond struct {
	lib     *Lib
	id      uint64
	waiters []*cvWaiter
}

// NewCond creates a condition variable.
func (l *Lib) NewCond() *Cond {
	return &Cond{lib: l, id: l.newID()}
}

// ID returns the condition variable's object identifier.
func (c *Cond) ID() uint64 { return c.id }

// Waiters reports the number of tasks currently enqueued.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Wait releases m, blocks until signaled, and re-acquires m
// (pthread_cond_wait). m must be held by t.
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
	op := OpCondWait
	if d >= 0 {
		op = OpCondTimedwait
	}
	det := c.lib.det
	cw := c.lib.newCVWaiter(t)
	det.Enter(t, op, c.id)
	c.waiters = append(c.waiters, cw)
	det.Exit(t, 0)
	m.Unlock(t)
	if d >= 0 {
		cw.timer.Reset(d)
	}
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

// settle decides the wait's outcome inside a deterministic section. A
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
func (c *Cond) Signal(t *kernel.Task) {
	c.lib.charge(t)
	c.lib.det.Enter(t, OpCondSignal, c.id)
	if len(c.waiters) > 0 {
		i := c.lib.pickWaiter(len(c.waiters))
		cw := c.waiters[i]
		c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
		cw.state = OutcomeSignaled
		cw.w.Grant()
	}
	c.lib.det.Exit(t, 0)
}

// Broadcast wakes every waiter in queue order (pthread_cond_broadcast).
func (c *Cond) Broadcast(t *kernel.Task) {
	c.lib.charge(t)
	c.lib.det.Enter(t, OpCondBroadcast, c.id)
	for _, cw := range c.waiters {
		cw.state = OutcomeSignaled
		cw.w.Grant()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.lib.det.Exit(t, 0)
}
