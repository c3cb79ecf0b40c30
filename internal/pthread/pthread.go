// Package pthread implements the Pthreads synchronization primitives that
// FT-Linux interposes on (§3.2, §3.3): mutexes (lock/trylock), condition
// variables (wait/signal/broadcast/timedwait), and reader-writer locks
// (rdlock/wrlock/tryrdlock/trywrlock) — built on the kernel futex.
//
// Every interposed operation runs its order-sensitive state update inside a
// "deterministic section" provided by a Det implementation — the analogue
// of FT-Linux's __det_start/__det_end system calls wrapped around the
// re-implemented Glibc primitives loaded via LD_PRELOAD. The replication
// package supplies recording (primary) and replaying (secondary)
// implementations; Passthrough is the unreplicated (stock Ubuntu) baseline.
//
// The design keeps deterministic sections short and non-blocking: a lock
// operation either acquires immediately or enqueues itself FIFO inside the
// section, then parks on the futex outside it. Hand-off on unlock follows
// the queue, so the acquisition order on the secondary reproduces the
// primary's exactly — the property the paper obtains by making the futex
// queue FIFO. Setting the kernel's FutexFIFO parameter to false restores
// stock unordered wake-up and demonstrably breaks replay determinism.
package pthread

import (
	"fmt"
	"time"

	"repro/internal/kernel"
)

// Op identifies an interposed Pthreads operation inside a deterministic
// section. The replication layer streams it with each log tuple so the
// secondary can detect replay divergence.
type Op int

const (
	OpMutexLock Op = iota + 1
	OpMutexTrylock
	OpCondWait
	OpCondTimedwait
	OpCondResolve
	OpCondSignal
	OpCondBroadcast
	OpRWRdLock
	OpRWTryRdLock
	OpRWWrLock
	OpRWTryWrLock
	OpSyscall
)

var opNames = map[Op]string{
	OpMutexLock:     "mutex_lock",
	OpMutexTrylock:  "mutex_trylock",
	OpCondWait:      "cond_wait",
	OpCondTimedwait: "cond_timedwait",
	OpCondResolve:   "cond_resolve",
	OpCondSignal:    "cond_signal",
	OpCondBroadcast: "cond_broadcast",
	OpRWRdLock:      "rwlock_rdlock",
	OpRWTryRdLock:   "rwlock_tryrdlock",
	OpRWWrLock:      "rwlock_wrlock",
	OpRWTryWrLock:   "rwlock_trywrlock",
	OpSyscall:       "syscall",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Outcome codes recorded by Resolve sections.
const (
	OutcomeSignaled uint64 = iota + 1
	OutcomeTimedOut
)

// Det provides the deterministic-section protocol around interposed
// operations. Implementations: Passthrough (no replication), the
// replication package's recorder (primary) and replayer (secondary).
type Det interface {
	// Section runs fn as one deterministic section: the state update of a
	// single interposed operation by thread t on object obj. fn must not
	// block. On the primary, sections are serialized by the namespace-wide
	// global mutex and their order is streamed to the secondary; on the
	// secondary, Section blocks until it is this thread's turn.
	Section(t *kernel.Task, op Op, obj uint64, fn func())

	// Resolve handles operations whose outcome the primary cannot predict
	// (a timed wait racing a signal, a syscall result). On the primary it
	// runs block (which parks until the outcome is known), then runs settle
	// inside a deterministic section and records the returned outcome. On
	// the secondary it skips block entirely, waits for the thread's turn,
	// runs settle, and verifies the outcome matches the primary's.
	Resolve(t *kernel.Task, op Op, obj uint64, block func(), settle func() uint64) uint64
}

// Passthrough is the no-replication Det: sections run immediately and
// resolves just block locally. It models the stock Ubuntu baseline.
type Passthrough struct{}

var _ Det = Passthrough{}

// Section runs fn directly.
func (Passthrough) Section(_ *kernel.Task, _ Op, _ uint64, fn func()) { fn() }

// Resolve blocks locally and settles locally.
func (Passthrough) Resolve(_ *kernel.Task, _ Op, _ uint64, block func(), settle func() uint64) uint64 {
	block()
	return settle()
}

// Lib is one process's Pthreads library instance: the analogue of the
// LD_PRELOAD-ed replacement library, bound to a kernel and a Det.
type Lib struct {
	kern   *kernel.Kernel
	det    Det
	opCost time.Duration
	nextID uint64
}

// NewLib creates a Pthreads library on kernel k interposed by det. A nil
// det means Passthrough.
func NewLib(k *kernel.Kernel, det Det) *Lib {
	if det == nil {
		det = Passthrough{}
	}
	return &Lib{kern: k, det: det, opCost: 200 * time.Nanosecond}
}

// Kernel returns the kernel the library runs on.
func (l *Lib) Kernel() *kernel.Kernel { return l.kern }

// Det returns the library's deterministic-section provider.
func (l *Lib) Det() Det { return l.det }

// SetOpCost overrides the CPU cost charged per Pthreads operation.
func (l *Lib) SetOpCost(d time.Duration) { l.opCost = d }

func (l *Lib) charge(t *kernel.Task) {
	t.Busy(l.opCost)
}

func (l *Lib) newID() uint64 {
	l.nextID++
	return l.nextID
}

// ShardOf maps a sequencing-object key to one of shards det-section locks.
// A Fibonacci multiplicative hash spreads the small, dense ids produced by
// newID across shards so that adjacent objects (a condvar and the mutex
// created next to it) usually land on different locks. The mapping is a
// pure function of (key, shards): both replicas, the checkpoint verifier
// and the benchmarks compute the same placement independently.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int((key * 0x9e3779b97f4a7c15) >> 32 % uint64(shards))
}

// fifo reports whether hand-off order follows the paper's FIFO-futex
// modification; when false, a deterministically-random waiter is chosen,
// modelling stock futex wake order.
func (l *Lib) fifo() bool { return l.kern.Params().FutexFIFO }

func (l *Lib) pickWaiter(n int) int {
	if l.fifo() || n == 1 {
		return 0
	}
	return l.kern.Sim().Rand().Intn(n)
}

// waiter is one task parked on a synchronization object. Each waiter gets a
// private futex key plus a granted flag, the usual futex-word protocol: a
// grant that lands before the park is not lost.
type waiter struct {
	task    *kernel.Task
	key     uint64
	granted bool
}

func (l *Lib) newWaiter(t *kernel.Task) waiter {
	return waiter{task: t, key: l.kern.NewFutexKey()}
}

// parkUntilGranted parks the calling task until the waiter is granted.
func (w *waiter) parkUntilGranted() {
	for !w.granted {
		w.task.FutexWait(w.key, -1)
	}
}

// grant marks the waiter runnable and wakes it through the futex. waker
// pays the wake cost; a nil waker wakes from scheduler context.
func (w *waiter) grant(k *kernel.Kernel, waker *kernel.Task) {
	w.granted = true
	if waker != nil {
		waker.FutexWake(w.key, 1)
	} else {
		k.FutexWakeRaw(w.key, 1)
	}
}
