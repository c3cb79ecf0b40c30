package kernel

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// futexTable implements the kernel futex with the paper's modification:
// the wait queue is strictly FIFO, so the order in which threads acquire a
// contended lock is deterministic and can be replayed on the secondary
// replica (§3.3). Setting Params.FutexFIFO to false restores the stock
// behaviour (an arbitrary waiter is woken), which breaks replay determinism
// — the ablation benchmarks quantify this.
type futexTable struct {
	k       *Kernel
	queues  map[uint64]*sim.WaitQueue // keys with parked tasks only
	free    []*sim.WaitQueue          // emptied queues, for the next key that needs one
	nextKey uint64
}

func newFutexTable(k *Kernel) *futexTable {
	return &futexTable{k: k, queues: make(map[uint64]*sim.WaitQueue)}
}

// NewFutexKey allocates a fresh futex key — the analogue of the userspace
// address a futex word lives at.
func (k *Kernel) NewFutexKey() uint64 {
	k.futex.nextKey++
	return k.futex.nextKey
}

// FutexWait parks the task on the futex key. A negative timeout waits
// forever. It reports true when woken by FutexWake and false on timeout.
func (t *Task) FutexWait(key uint64, timeout time.Duration) bool {
	f := t.kernel.futex
	q := f.queues[key]
	if q == nil {
		if n := len(f.free); n > 0 {
			q, f.free = f.free[n-1], f.free[:n-1]
		} else {
			q = new(sim.WaitQueue)
		}
		f.queues[key] = q
	}
	// Keys are per waiter and never reused, so a queue is kept only while
	// tasks are parked on it. Deferred: a killed task unwinds through here.
	defer func() {
		if q.Len() == 0 && f.queues[key] == q {
			delete(f.queues, key)
			f.free = append(f.free, q)
		}
	}()
	if timeout < 0 {
		q.Wait(t.proc)
		return true
	}
	return q.WaitTimeout(t.proc, timeout)
}

// FutexWake wakes up to n tasks parked on key and reports how many were
// woken. Wake order is FIFO under the paper's modification; otherwise a
// deterministic-random waiter is chosen, modelling stock futex's
// unspecified order. Each wake pays the kernel's base wake cost.
func (t *Task) FutexWake(key uint64, n int) int {
	return t.kernel.FutexWakeRaw(key, n)
}

// FutexWakeRaw is FutexWake callable from scheduler context (e.g. a timer
// event) rather than from a task.
func (k *Kernel) FutexWakeRaw(key uint64, n int) int {
	q := k.futex.queues[key]
	woken := 0
	for q != nil && woken < n && q.Len() > 0 {
		if k.params.FutexFIFO {
			q.WakeOne(k.params.WakeBase)
		} else {
			q.WakeIndex(k.sim.Rand().Intn(q.Len()), k.params.WakeBase)
		}
		woken++
	}
	return woken
}

// FutexWaiters reports how many tasks are parked on key.
func (k *Kernel) FutexWaiters(key uint64) int {
	if q, ok := k.futex.queues[key]; ok {
		return q.Len()
	}
	return 0
}

// Waiter is one futex wait record: a private futex key plus a granted flag,
// the usual futex-word protocol — a grant that lands before the park is not
// lost. A task parks on at most one lock-like object at a time, so every
// task embeds one (Task.Waiter) and blocking on a contended lock allocates
// nothing; an owner whose wait outlives other parks of the same task (a
// condition-variable wait stays queued while the task takes the det-section
// lock that settles it) embeds its own.
//
// The key is drawn fresh at every Arm, never kept per task: with a
// permanent key a grant issued late for a previous wait would wake the task
// wherever it is parked now.
type Waiter struct {
	task    *Task
	key     uint64
	granted bool
	armed   bool
}

// Waiter arms and returns the task's embedded wait record. It panics if
// the record is still armed: a task queued on two objects at once would
// let either grant release it.
func (t *Task) Waiter() *Waiter {
	t.wait.Arm(t)
	return &t.wait
}

// Arm readies the record for one wait by t: a fresh futex key, not granted.
func (w *Waiter) Arm(t *Task) {
	if w.armed {
		panic(fmt.Sprintf("kernel: wait record of task %q armed twice", t.name))
	}
	w.task, w.key, w.granted, w.armed = t, t.kernel.NewFutexKey(), false, true
}

// Task returns the task the record is armed for.
func (w *Waiter) Task() *Task { return w.task }

// Park blocks the armed task until the record is granted, which ends the
// wait: the record is free for the task's next one.
func (w *Waiter) Park() {
	for !w.granted {
		w.task.FutexWait(w.key, -1)
	}
	w.armed = false
}

// Grant marks the waiter runnable and wakes it through the futex. waker
// pays the wake cost; a nil waker wakes from scheduler context.
func (w *Waiter) Grant(waker *Task) {
	w.granted = true
	if waker != nil {
		waker.FutexWake(w.key, 1)
	} else {
		w.task.kernel.FutexWakeRaw(w.key, 1)
	}
}

// Disarm ends a wait that was never parked on (a replayed condition wait
// skips its blocking part).
func (w *Waiter) Disarm() { w.armed = false }
