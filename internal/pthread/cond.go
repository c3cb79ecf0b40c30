package pthread

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// cvWaiter is one task blocked in cond_wait/cond_timedwait.
type cvWaiter struct {
	w          waiter
	state      uint64 // 0 while waiting, then OutcomeSignaled / OutcomeTimedOut
	timer      sim.Event
	timerFired bool
}

// onTimer is cond_timedwait's deadline: it grants the waiter so that it
// wakes and settles the timeout-versus-signal race in a det section.
func (cw *cvWaiter) onTimer() {
	if cw.state != 0 || cw.timerFired {
		return
	}
	cw.timerFired = true
	cw.w.grant(cw.w.task.Kernel(), nil)
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
	cw := &cvWaiter{w: c.lib.newWaiter(t)}
	op := OpCondWait
	if d >= 0 {
		op = OpCondTimedwait
	}
	c.lib.det.Section(t, op, c.id, func() {
		c.waiters = append(c.waiters, cw)
	})
	m.Unlock(t)
	if d >= 0 {
		cw.timer.Init(c.lib.kern.Sim(), cw.onTimer)
		cw.timer.Reset(d)
	}
	out := c.lib.det.Resolve(t, OpCondResolve, c.id,
		func() { cw.w.parkUntilGranted() },
		func() uint64 { return c.settle(cw) })
	cw.timer.Cancel()
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
	c.lib.det.Section(t, OpCondSignal, c.id, func() {
		if len(c.waiters) == 0 {
			return
		}
		i := c.lib.pickWaiter(len(c.waiters))
		cw := c.waiters[i]
		c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
		cw.state = OutcomeSignaled
		cw.w.grant(c.lib.kern, t)
	})
}

// Broadcast wakes every waiter in queue order (pthread_cond_broadcast).
func (c *Cond) Broadcast(t *kernel.Task) {
	c.lib.charge(t)
	c.lib.det.Section(t, OpCondBroadcast, c.id, func() {
		ws := c.waiters
		c.waiters = nil
		for _, cw := range ws {
			cw.state = OutcomeSignaled
			cw.w.grant(c.lib.kern, t)
		}
	})
}
