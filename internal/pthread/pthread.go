// Package pthread implements the Pthreads synchronization primitives that
// FT-Linux interposes on (§3.2, §3.3): mutexes (lock/trylock), condition
// variables (wait/signal/broadcast/timedwait), and reader-writer locks
// (rdlock/wrlock/tryrdlock/trywrlock) — built on the kernel's one-task wait
// record (kernel.Waiter), the futex-word protocol.
//
// Every interposed operation runs its order-sensitive state update inside a
// "deterministic section": inline code between Det.Enter and Det.Exit — the
// analogue of FT-Linux's __det_start/__det_end system calls wrapped around
// the re-implemented Glibc primitives loaded via LD_PRELOAD. The
// replication package supplies the recording (primary) and replaying
// (secondary) implementation; Passthrough is the unreplicated (stock
// Ubuntu) baseline.
//
// The design keeps deterministic sections short and non-blocking: a lock
// operation either acquires immediately or enqueues its wait record FIFO
// inside the section, then parks on the record outside it. Nothing on these
// paths allocates: the section's state lives in the calling thread, a task
// queued on a mutex or rwlock waits on the record embedded in its
// kernel.Task (it parks on one lock at a time), and condition-variable
// waiters — whose wait stays queued across the section that settles it —
// are recycled per library. The FIFO hand-off lives here, not in the
// kernel: unlock grants the records in queue order, so the acquisition
// order on the secondary reproduces the primary's exactly — the property
// the paper obtains by making the futex queue FIFO. Setting the kernel's
// FutexFIFO parameter to false grants an arbitrary queued record instead
// (stock unordered wake-up) and demonstrably breaks replay determinism.
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
// operations: an enter/exit pair bracketing inline code, the way
// __det_start/__det_end bracket the re-implemented Glibc primitive.
// Implementations: Passthrough (no replication) and the replication
// package's Namespace (recorder on the primary, replayer on the secondary).
// The state of an open section lives in the calling thread, never in a
// closure, so a section costs no allocation.
//
// Every Enter (and every Replay that reports true) must be matched by
// exactly one Exit on every path, and the code between them must not block.
// The replicating Det enforces both at run time: a thread that parks, or
// enters again, inside its open section panics with a *SectionError.
type Det interface {
	// Enter opens the deterministic section of one interposed operation by
	// thread t on object obj. On the primary, sections are serialized by
	// the det-section lock owning obj and their order is streamed to the
	// secondary; on the secondary, Enter blocks until it is this thread's
	// turn.
	Enter(t *kernel.Task, op Op, obj uint64)

	// Replay opens the section of an operation whose outcome the primary
	// cannot predict (a timed wait racing a signal). It reports true on a
	// replaying side, with the section open at the thread's recorded turn:
	// the caller skips its blocking part, runs the settling update, and
	// Exit returns the recorded outcome. It reports false on a recording or
	// live side — and on a replica promoted while the thread was parked
	// here — with no section open: the caller runs its blocking part until
	// the outcome is known, then opens the section with Enter.
	Replay(t *kernel.Task, op Op, obj uint64) bool

	// Exit closes the section t has open. outcome is the result the
	// section settled (zero for operations that have none): recorded with
	// the section's tuple on the primary, compared against the recorded one
	// on the secondary — a mismatch is a replay divergence. It returns the
	// outcome to act on: the recorded one when replaying.
	Exit(t *kernel.Task, outcome uint64) uint64
}

// SectionError is the panic value of a deterministic section misused at
// run time: its thread parked, or opened another section, while the section
// was open. Either holds the det-section lock — replaying, the object's
// turn — across a block, stalling every replicated thread queued behind it;
// a second open also self-deadlocks on that lock.
type SectionError struct {
	Task  string // the kernel task
	FTPid int    // the thread's replication identity
	Op    Op     // the open section's operation and object
	Obj   uint64
	Call  string // what was attempted inside it: "park" or "Enter"
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("pthread: task %q (ft_pid %d) called %s inside its open %v section on object %d",
		e.Task, e.FTPid, e.Call, e.Op, e.Obj)
}

// Passthrough is the no-replication Det: sections open and close for free
// and nothing replays. It models the stock Ubuntu baseline.
type Passthrough struct{}

var _ Det = Passthrough{}

// Enter opens nothing.
func (Passthrough) Enter(*kernel.Task, Op, uint64) {}

// Replay reports false: the caller blocks locally.
func (Passthrough) Replay(*kernel.Task, Op, uint64) bool { return false }

// Exit returns the locally settled outcome.
func (Passthrough) Exit(_ *kernel.Task, outcome uint64) uint64 { return outcome }

// Lib is one process's Pthreads library instance: the analogue of the
// LD_PRELOAD-ed replacement library, bound to a kernel and a Det.
type Lib struct {
	kern   *kernel.Kernel
	det    Det
	opCost time.Duration
	nextID uint64
	cvFree []*cvWaiter // settled condition waits, reused by the next Cond.wait
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
