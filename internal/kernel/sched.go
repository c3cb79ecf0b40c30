package kernel

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Task is one kernel thread (a schedulable entity). A task holds a core
// only while inside Compute; blocking operations release the CPU, exactly
// as a Linux thread sleeping in the kernel does.
type Task struct {
	kernel *Kernel
	proc   *sim.Proc
	tid    int
	name   string

	doneQ    sim.WaitQueue // joiners
	finished bool

	// A task computes on at most one core at a time, so everything a
	// timeslice needs lives in the task and is reused slice after slice.
	// core is the one record of which core the task holds, from the moment
	// it leaves the idle list or a releasing task's hands until release
	// (-1 otherwise). The task parks on wakeQ once per slice — queued for a
	// core, owing the dispatch penalty (dispatch fires when it is paid and
	// starts the slice) and computing (sliceTimer ends it) alike.
	core       int
	wakeQ      sim.WaitQueue
	slice      runSlice
	dispatch   sim.Event
	sliceTimer sim.Event

	wait Waiter // the task's wait record, see Task.Waiter
}

// scheduler multiplexes tasks over the kernel's cores.
type scheduler struct {
	k         *Kernel
	ncores    int
	idle      []int      // idle core IDs (most recently used last)
	idleSince []sim.Time // per core
	// Two-level run queue, as in Linux's wake-preemption: tasks that just
	// woke from a block (interactive) are dispatched before tasks that
	// merely exhausted their timeslice (batch), so a brief lock hold or
	// syscall is not penalized by a full quantum behind CPU hogs. A boosted
	// arrival with no idle core preempts a running batch task mid-quantum.
	boostq, runq       []*Task // FIFOs from boostHead / runHead
	boostHead, runHead int
	running            []*runSlice // per core: its current timeslice, or nil
}

// runSlice is one task's current timeslice on the core it holds.
type runSlice struct {
	t         *Task
	q         time.Duration // how long it may run
	batch     bool
	start     sim.Time
	finished  bool
	preempted bool
}

func newScheduler(k *Kernel, ncores int) *scheduler {
	s := &scheduler{
		k:         k,
		ncores:    ncores,
		idleSince: make([]sim.Time, ncores),
		running:   make([]*runSlice, ncores),
	}
	for c := ncores - 1; c >= 0; c-- {
		s.idle = append(s.idle, c)
	}
	return s
}

// Spawn starts fn as a new kernel task. The task dies with the kernel.
func (k *Kernel) Spawn(name string, fn func(t *Task)) *Task {
	k.nextTID++
	t := &Task{
		kernel: k,
		tid:    k.nextTID,
		name:   name,
		core:   -1,
	}
	t.dispatch.Init(k.sim, t.startSlice)
	t.sliceTimer.Init(k.sim, t.sliceExpired)
	t.proc = k.group.Spawn(fmt.Sprintf("%s/%s.%d", k.name, name, t.tid), func(p *sim.Proc) {
		defer func() {
			t.finished = true
			t.doneQ.WakeAll(0)
		}()
		fn(t)
	})
	return t
}

// Kernel returns the kernel the task runs on.
func (t *Task) Kernel() *Kernel { return t.kernel }

// TID returns the task's thread ID, unique within its kernel.
func (t *Task) TID() int { return t.tid }

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Proc returns the underlying simulated process.
func (t *Task) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.kernel.sim.Now() }

// Finished reports whether the task function has returned.
func (t *Task) Finished() bool { return t.finished }

// Kill terminates the task at its next block point.
func (t *Task) Kill() { t.proc.Kill() }

// Join blocks the calling task until t finishes.
func (t *Task) Join(caller *Task) {
	for !t.finished {
		t.doneQ.Wait(caller.proc)
	}
}

// Sleep blocks the task for d without holding a core.
func (t *Task) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Busy occupies the task for d of short on-CPU work WITHOUT a scheduling
// point: the model of a brief kernel path (syscall entry, lock word
// update, log write) that runs to completion on the thread's current core
// rather than rescheduling. It advances time and utilization accounting
// but does not contend for a core.
func (t *Task) Busy(d time.Duration) {
	if d <= 0 {
		return
	}
	t.proc.Sleep(d)
	t.kernel.computeNS += int64(d)
}

// Syscall charges the base syscall entry/exit cost.
func (t *Task) Syscall() { t.Busy(t.kernel.params.SyscallCost) }

// Compute consumes d of CPU time on one of the kernel's cores, competing
// with other tasks. Dispatch costs (context switch, deep-idle wake penalty)
// are added on top of d.
func (t *Task) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	s := t.kernel.sched
	defer func() {
		if r := recover(); r != nil {
			// The task was killed somewhere in Compute — owing the dispatch
			// penalty, mid-slice, mid-hand-off: free what it holds as we
			// unwind.
			t.dispatch.Cancel()
			if t.core >= 0 {
				s.release(t)
			}
			panic(r)
		}
	}()
	for batch := false; ; {
		q := d
		if q > t.kernel.params.Quantum {
			q = t.kernel.params.Quantum
		}
		t.slice = runSlice{t: t, q: q, batch: batch}
		if t.core >= 0 {
			t.startSlice() // uncontended: the next slice follows on the same core
		} else {
			s.acquire(t, !batch)
		}
		t.wakeQ.Wait(t.proc)
		// A batch slice ends early when a freshly woken task preempts it.
		elapsed := t.Now().Sub(t.slice.start)
		t.kernel.computeNS += int64(elapsed)
		if d -= elapsed; d <= 0 {
			break
		}
		if s.queued() > 0 {
			// Contended (or preempted): yield the core and requeue as batch.
			s.release(t)
			batch = true
		}
	}
	s.release(t)
}

// startSlice begins the task's timeslice on the core it holds: called
// directly when one slice follows another on the same core, and by the
// dispatch event once the penalty of getting the core has been paid.
func (t *Task) startSlice() {
	t.slice.start = t.Now()
	t.kernel.sched.running[t.core] = &t.slice
	t.sliceTimer.Reset(t.slice.q)
}

// sliceExpired ends the task's timeslice when its quantum runs out.
func (t *Task) sliceExpired() {
	if t.slice.finished {
		return
	}
	t.slice.finished = true
	t.wakeQ.WakeOne(0)
}

// preemptBatch interrupts the longest-running batch slice, if any — the
// lowest-numbered core's among equals.
func (s *scheduler) preemptBatch() {
	var victim *runSlice
	for _, sl := range s.running {
		if sl != nil && sl.batch && !sl.finished && !sl.preempted && (victim == nil || sl.start < victim.start) {
			victim = sl
		}
	}
	if victim == nil {
		return
	}
	victim.preempted = true
	victim.finished = true
	victim.t.sliceTimer.Cancel()
	victim.t.wakeQ.WakeOne(s.k.params.ContextSwitch)
}

func (s *scheduler) queued() int {
	return len(s.boostq) - s.boostHead + len(s.runq) - s.runHead
}

// acquire gets t on its way to a core: an idle one is taken at once and the
// slice starts when the dispatch latency has passed; if every core is busy
// the task queues behind other runnable tasks, freshly woken tasks (boost)
// ahead of timeslice-expired ones, until a release hands it one. Either way
// the caller parks next and wakes at the end of the slice.
func (s *scheduler) acquire(t *Task, boost bool) {
	if len(s.idle) > 0 {
		t.core = s.idle[len(s.idle)-1]
		s.idle = s.idle[:len(s.idle)-1]
		idleFor := s.k.sim.Now().Sub(s.idleSince[t.core])
		if pen := s.dispatchPenalty(idleFor); pen > 0 {
			t.dispatch.Reset(pen)
		} else {
			t.startSlice()
		}
		return
	}
	if boost {
		s.boostq = append(s.boostq, t)
		// Wake-preemption: evict a running batch slice so the woken task
		// gets a core within a context switch rather than a full quantum —
		// granted with the configured probability, as CFS's vruntime check
		// only sometimes allows it.
		if pr := s.k.params.WakePreemptProb; pr > 0 && (pr >= 1 || s.k.sim.Rand().Float64() < pr) {
			s.preemptBatch()
		}
	} else {
		s.runq = append(s.runq, t)
	}
}

// dispatchPenalty models wake_up_process: a context switch, plus an
// idle-exit penalty that grows with how long the target core has been idle
// (deeper C-states take longer to leave), up to tens of milliseconds for
// long-idle cores (§4.1). The penalty is bounded by a twentieth of the
// idle time, so waking costs can degrade but never dominate a busy
// system's throughput.
func (s *scheduler) dispatchPenalty(idleFor time.Duration) time.Duration {
	p := s.k.params
	pen := p.ContextSwitch
	if idleFor <= p.IdleThreshold || p.IdleWakeMax <= p.IdleWakeMin {
		return pen
	}
	depth := idleFor / 20
	if max := p.IdleWakeMax - p.IdleWakeMin; depth > max {
		depth = max
	}
	pen += p.IdleWakeMin
	if depth > 0 {
		pen += time.Duration(s.k.sim.Rand().Int63n(int64(depth)))
	}
	return pen
}

// release returns t's core and ends what is left of its slice there,
// handing the core directly to the next queued task if any (paying only a
// context switch — the core never goes idle); boosted (freshly woken) tasks
// are served before batch tasks.
func (s *scheduler) release(t *Task) {
	core := t.core
	t.core = -1
	s.running[core] = nil
	for s.queued() > 0 {
		var next *Task
		if len(s.boostq) > s.boostHead {
			next = s.boostq[s.boostHead]
			s.boostq, s.boostHead = sim.PopFront(s.boostq, s.boostHead)
		} else {
			next = s.runq[s.runHead]
			s.runq, s.runHead = sim.PopFront(s.runq, s.runHead)
		}
		if next.proc.Killed() || next.finished {
			continue
		}
		next.core = core
		next.dispatch.Reset(s.k.params.ContextSwitch)
		return
	}
	s.idleSince[core] = s.k.sim.Now()
	s.idle = append(s.idle, core)
}

// Runnable reports the number of tasks queued for a core.
func (k *Kernel) Runnable() int { return k.sched.queued() }

// IdleCores reports the number of idle cores.
func (k *Kernel) IdleCores() int { return len(k.sched.idle) }
