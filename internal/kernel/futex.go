package kernel

import (
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
