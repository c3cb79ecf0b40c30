package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// Waiter is one wait record: a granted flag plus the queue its task parks
// on, the usual futex-word protocol — a grant that lands before the park is
// not lost. A record holds one task; the order in which contended waiters
// are granted — FIFO under the paper's futex modification (§3.3) — is
// decided by the queue of records the lock-like object keeps (see package
// pthread). A task parks on at most one lock-like object at a time, so
// every task embeds one (Task.Waiter) and blocking on a contended lock
// allocates nothing; an owner whose wait outlives other parks of the same
// task (a condition-variable wait stays queued while the task takes the
// det-section lock that settles it) embeds its own. A grant wakes only a
// task parked on the record granted, never one parked elsewhere.
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
// the task after the kernel's base wake cost. Granting a record whose task
// is not parked — not yet, no longer, or killed — only sets the flag.
func (w *Waiter) Grant() {
	w.granted = true
	w.q.WakeOne(w.task.kernel.params.WakeBase)
}

// Disarm ends a wait that was never parked on (a replayed condition wait
// skips its blocking part).
func (w *Waiter) Disarm() { w.armed = false }
