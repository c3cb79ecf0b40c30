package kernel

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Waiter is one wait record: a granted flag plus the queue its task parks
// on, the usual futex-word protocol — a grant that lands before the park is
// not lost. A record holds one task; the queue of records the lock-like
// object keeps (package pthread) decides the order contended waiters are
// granted in, FIFO under the paper's futex modification (§3.3). A task parks
// on at most one lock-like object at a time, so every task embeds one
// (Task.Waiter) and blocking on a contended lock allocates nothing; an owner
// whose wait outlives other parks of the same task (a timed condition wait
// stays queued while the task takes the det-section lock of its timeout)
// embeds its own. A grant wakes only a task parked on the record granted.
type Waiter struct {
	task    *Task
	granted bool
	armed   bool
	q       sim.WaitQueue
}

// Waiter arms and returns the task's embedded wait record. It panics if
// the record is still armed: a task queued on two objects at once would
// let either grant release it.
func (t *Task) Waiter() *Waiter {
	t.wait.Arm(t)
	return &t.wait
}

// Arm readies the record for one wait by t: not granted.
func (w *Waiter) Arm(t *Task) {
	if w.armed {
		panic(fmt.Sprintf("kernel: wait record of task %q armed twice", t.name))
	}
	w.task, w.granted, w.armed = t, false, true
}

// Task returns the task the record is armed for.
func (w *Waiter) Task() *Task { return w.task }

// Park blocks the armed task until the record is granted, which ends the
// wait: the record is free for the task's next one.
func (w *Waiter) Park() {
	for !w.granted {
		w.q.Wait(w.task.proc)
	}
	w.armed = false
}

// Grant marks the record granted and, if its task is parked on it, wakes
// the task after the kernel's base wake cost plus busy, charged as on-CPU
// time: the short path the woken task would Busy first runs inside the one
// wake-up. It reports whether the task was parked; if not — not yet, no
// longer, or killed — it only sets the flag, and busy is the task's to pay.
func (w *Waiter) Grant(busy time.Duration) bool {
	w.granted = true
	if w.q.WakeOne(w.task.kernel.params.WakeBase+busy) == nil {
		return false
	}
	w.task.Charge(busy)
	return true
}
