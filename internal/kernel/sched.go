package kernel

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Task is one kernel thread (a schedulable entity). A task holds a core
// only while inside Compute; blocking operations release the CPU, exactly
// as a Linux thread sleeping in the kernel does. A task that computes again
// in the instant its Compute ended, no other task having taken the core,
// never left it: the thread that never sleeps never context-switches.
type Task struct {
	kernel *Kernel
	proc   *sim.Proc // nil for a stackless task
	tid    int
	name   string

	doneQ    sim.WaitQueue // joiners
	finished bool

	// A task computes on at most one core at a time, so everything a
	// timeslice needs lives in the task and is reused slice after slice.
	// core is the one record of which core the task holds, from the moment
	// it leaves the idle list or a releasing task's hands until release
	// (-1 otherwise). The task parks once per slice — queued for a core,
	// owing the dispatch penalty (dispatch fires when it is paid and starts
	// the slice) and computing (sliceTimer ends it) alike — and left is the
	// CPU time the Compute in progress still needs.
	core       int
	wakeQ      sim.WaitQueue
	slice      runSlice
	left       time.Duration
	dispatch   sim.Event
	sliceTimer sim.Event

	wait Waiter // the task's wait record, see Task.Waiter

	// A stackless task (SpawnStackless) has no process: its code is a chain
	// of continuations, and resume runs the next one. resume is armed where
	// the process would be made runnable, so it draws the sequence number
	// the process's resume did. parked is set while the task waits — for
	// the end of a slice while left > 0, else for work — until then.
	resume sim.Event
	then   func() // the continuation resume runs next
	parked bool
	src    Source // the source resume is installed on while the task waits there
	killed bool
}

// Source is what a stackless task waits on for work (WaitThen): it arms the
// event it is given where it would wake a parked receiver, and nil detaches
// it. A shared-memory ring (shm.Ring) is one.
type Source interface{ OnReceive(e *sim.Event) }

// scheduler multiplexes tasks over the kernel's cores.
type scheduler struct {
	k         *Kernel
	ncores    int
	idle      []int      // idle core IDs (most recently used last)
	idleSince []sim.Time // per core
	lastUser  []*Task    // per core: the task that released it last
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
		lastUser:  make([]*Task, ncores),
		running:   make([]*runSlice, ncores),
	}
	for c := ncores - 1; c >= 0; c-- {
		s.idle = append(s.idle, c)
	}
	return s
}

func (k *Kernel) newTask(name string) *Task {
	k.nextTID++
	t := &Task{kernel: k, tid: k.nextTID, name: name, core: -1}
	t.dispatch.Init(k.group, t.startSlice)
	t.sliceTimer.Init(k.group, t.sliceExpired)
	return t
}

// SkipTIDs draws the next n thread IDs, as n spawns would, for work run as
// events of the kernel's domain instead: every later task keeps its ID.
func (k *Kernel) SkipTIDs(n int) { k.nextTID += n }

// Spawn starts fn as a new kernel task. The task dies with the kernel.
func (k *Kernel) Spawn(name string, fn func(t *Task)) *Task {
	t := k.newTask(name)
	t.proc = k.group.Spawn(fmt.Sprintf("%s/%s.%d", k.name, name, t.tid), func(p *sim.Proc) {
		defer t.finish()
		fn(t)
	})
	return t
}

// SpawnStackless starts a task with no process of its own: start, its first
// continuation, runs as an event callback where a spawned task would first
// run. A continuation ends by asking for the next one — ComputeThen,
// ParkThen or WaitThen — or returns without, and the task has finished. A
// stackless task never switches a process in, and every sequence number it
// draws is the one the process it replaces would have drawn, at the same
// point: it computes on the scheduler's cores through the same acquire,
// dispatch, sliceTimer and release. Only those three calls block it: it
// cannot Sleep, Busy or Join. It dies with the kernel's domain.
func (k *Kernel) SpawnStackless(name string, start func()) *Task {
	t := k.newTask(name)
	t.resume.Init(k.group, t.run)
	t.then = start
	t.resume.Reset(0) // the spawned process's first resume
	return t
}

func (t *Task) finish() {
	t.finished = true
	t.doneQ.WakeAll(0)
}

// Kernel returns the kernel the task runs on.
func (t *Task) Kernel() *Kernel { return t.kernel }

// TID returns the task's thread ID, unique within its kernel.
func (t *Task) TID() int { return t.tid }

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Proc returns the underlying simulated process, nil for a stackless task.
func (t *Task) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.kernel.sim.Now() }

// Finished reports whether the task function has returned.
func (t *Task) Finished() bool { return t.finished }

// Computing reports whether the task is inside Compute or ComputeThen.
func (t *Task) Computing() bool { return t.left > 0 && !t.finished }

// gone reports whether the task has finished or been killed, alone or with its kernel.
func (t *Task) gone() bool { return t.finished || t.killed || !t.kernel.Alive() }

// Kill terminates the task at its next block point. A stackless task parked
// with no resume pending, or woken with a delay still to run, resumes now,
// as a killed process does, and gives back its core from there.
func (t *Task) Kill() {
	if t.gone() {
		return
	}
	if t.killed = true; t.proc != nil {
		t.proc.Kill()
	} else if t.parked && !t.resume.Armed() || t.resume.Armed() && t.resume.At() > t.Now() {
		t.detach()
		t.parked = false
		t.resume.Reset(0)
	}
}

// Join blocks the calling task until t finishes.
func (t *Task) Join(caller *Task) {
	for !t.finished {
		t.doneQ.Wait(caller.proc)
	}
}

// Sleep blocks the task for d without holding a core.
func (t *Task) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Busy occupies the task for d of short on-CPU work WITHOUT a scheduling
// point — a brief kernel path (syscall entry, lock word update, log write)
// run to completion on the task's core: it advances time and utilization
// accounting, contending for no core. Charge is the accounting alone, for a
// path a wake-up runs for the parked task it delays by d (Waiter.Grant).
func (t *Task) Busy(d time.Duration) {
	if d > 0 {
		t.proc.Sleep(d)
		t.Charge(d)
	}
}

func (t *Task) Charge(d time.Duration) { t.kernel.computeNS += int64(d) }

// Syscall charges the base syscall entry/exit cost.
func (t *Task) Syscall() { t.Busy(t.kernel.params.SyscallCost) }

// Compute consumes d of CPU time on one of the kernel's cores, competing
// with other tasks. Dispatch costs (context switch, deep-idle wake penalty)
// are added on top of d.
func (t *Task) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			// The task was killed somewhere in Compute — owing the dispatch
			// penalty, mid-slice, mid-hand-off: free what it holds as we
			// unwind.
			t.dropCore()
			panic(r)
		}
	}()
	t.left = d
	for t.nextSlice(false); ; {
		t.wakeQ.Wait(t.proc)
		if t.sliceEnded() {
			return
		}
	}
}

func (t *Task) nextSlice(batch bool) {
	t.slice = runSlice{t: t, q: min(t.left, t.kernel.params.Quantum), batch: batch}
	if t.core >= 0 {
		t.startSlice() // uncontended: the next slice follows on the same core
	} else {
		t.kernel.sched.acquire(t, !batch)
	}
}

// sliceEnded accounts the slice that just ended and reports whether the
// Compute is done, its core released. If not, the next slice is under way:
// on the same core if no one waits for it, else the task yields the core
// and requeues as batch.
func (t *Task) sliceEnded() bool {
	s := t.kernel.sched
	// A batch slice ends early when a freshly woken task preempts it.
	elapsed := t.Now().Sub(t.slice.start)
	t.kernel.computeNS += int64(elapsed)
	if t.left -= elapsed; t.left <= 0 {
		s.release(t)
		return true
	}
	batch := t.slice.batch
	if s.queued() > 0 {
		s.release(t)
		batch = true
	}
	t.nextSlice(batch)
	return false
}

// dropCore frees what a task killed inside Compute holds.
func (t *Task) dropCore() {
	t.dispatch.Cancel()
	if t.core >= 0 {
		t.kernel.sched.release(t)
	}
}

// wake ends the task's wait for the end of its slice after delay: the
// parked process is woken, a stackless task's resume armed.
func (t *Task) wake(delay time.Duration) {
	if t.proc != nil {
		t.wakeQ.WakeOne(delay)
	} else if t.parked {
		t.parked = false
		t.resume.Reset(delay)
	}
}

// ComputeThen is a stackless task's Compute: it consumes d of CPU time the
// same way, then runs k — at once if d is not positive.
func (t *Task) ComputeThen(d time.Duration, k func()) {
	if d <= 0 {
		k()
		return
	}
	t.then, t.parked, t.left = k, true, d
	t.nextSlice(false)
}

// ParkThen parks a stackless task until Wake, then runs k.
func (t *Task) ParkThen(k func()) { t.then, t.parked = k, true }

// Wake ends a stackless task's ParkThen, as WakeAll(0) on a queue only it
// waits on would. A task not parked there is unaffected.
func (t *Task) Wake() {
	if t.parked && t.left <= 0 && t.src == nil {
		t.parked = false
		t.resume.Reset(0)
	}
}

// WaitThen parks a stackless task until src delivers, then runs k: src arms
// the task's resume where it would wake a parked receiver, and only while
// the task waits there.
func (t *Task) WaitThen(src Source, k func()) {
	t.then, t.parked, t.src = k, true, src
	src.OnReceive(&t.resume)
}

func (t *Task) detach() {
	if t.src != nil {
		t.src.OnReceive(nil)
		t.src = nil
	}
}

// run is a stackless task's resume: what the process would do once switched
// back in. A killed task unwinds, one in Compute finishes its slice, and
// then the continuations run until one parks the task.
func (t *Task) run() {
	t.detach()
	t.parked = false
	if t.killed {
		t.dropCore()
		t.finish()
		return
	}
	if t.left > 0 && !t.sliceEnded() {
		t.parked = true
		return
	}
	k := t.then
	t.then = nil
	if k(); t.then == nil {
		t.finish()
	}
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
	t.wake(0)
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
	victim.t.wake(s.k.params.ContextSwitch)
}

func (s *scheduler) queued() int {
	return len(s.boostq) - s.boostHead + len(s.runq) - s.runHead
}

// acquire gets t on its way to a core: the most recently idled one is taken
// at once and the slice starts when the dispatch latency has passed — at
// once if t itself released that core in this instant, which it then never
// left (a core idle for no time draws no idle-exit penalty either way); if
// every core is busy the task queues behind other runnable tasks, freshly
// woken tasks (boost) ahead of timeslice-expired ones, until a release
// hands it one. Either way the caller parks next and wakes at the end of
// the slice.
func (s *scheduler) acquire(t *Task, boost bool) {
	if len(s.idle) > 0 {
		t.core = s.idle[len(s.idle)-1]
		s.idle = s.idle[:len(s.idle)-1]
		idleFor := s.k.sim.Now().Sub(s.idleSince[t.core])
		if pen := s.dispatchPenalty(idleFor); pen > 0 && (idleFor > 0 || s.lastUser[t.core] != t) {
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
		if pr := s.k.params.WakePreemptProb; pr > 0 && (pr >= 1 || s.k.group.Rand().Float64() < pr) {
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
	depth := min(idleFor/20, p.IdleWakeMax-p.IdleWakeMin)
	pen += p.IdleWakeMin
	if depth > 0 {
		pen += time.Duration(s.k.group.Rand().Int64N(int64(depth)))
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
		if next.gone() {
			continue
		}
		next.core = core
		next.dispatch.Reset(s.k.params.ContextSwitch)
		return
	}
	s.idleSince[core] = s.k.sim.Now()
	s.lastUser[core] = t
	s.idle = append(s.idle, core)
}

// Runnable reports the number of tasks queued for a core.
func (k *Kernel) Runnable() int { return k.sched.queued() }

// IdleCores reports the number of idle cores.
func (k *Kernel) IdleCores() int { return len(k.sched.idle) }
