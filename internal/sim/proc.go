package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// killedPanic unwinds a process after Kill. It is recovered by the
// process wrapper and never escapes the package.
type killedPanic struct{}

// procPanic wraps a real panic raised by a process's own code so Run can
// re-panic with context about which process failed.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (p procPanic) String() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", p.proc, p.value, p.stack)
}

// parkKind says what a blocked process is parked on, which is what Kill
// has to undo to make it runnable.
type parkKind uint8

const (
	parkNone  parkKind = iota // running, runnable, or not yet started
	parkSleep                 // in Sleep: its pending resume is the wake-up
	parkQueue                 // on p.queue, with or without a timeout
)

// Proc is a simulated process: a coroutine that runs under the simulation
// scheduler. At most one Proc executes at any moment; a Proc advances virtual
// time only by blocking (Sleep, WaitQueue.Wait, ...). All Proc methods must
// be called from the Proc's own code unless documented otherwise; a blocking
// call made anywhere else panics.
type Proc struct {
	sim      *Simulation
	group    *Group
	name     string
	killed   bool
	finished bool
	bg       bool // see SetBackground

	// The two halves of the coroutine (iter.Pull): the driver switches the
	// process in and gets back the successor it names when it switches out
	// (nil when it has none or has finished).
	switchIn  func() (*Proc, bool)
	switchOut func(*Proc) bool

	// A process has at most one resume and one wait timeout in the event
	// queue. Each field holds the sequence number of that entry, 0 when
	// there is none; zeroing it is how the entry is cancelled.
	resumeSeq  uint64
	timeoutSeq uint64

	parked   parkKind
	timedOut bool       // the last wait ended by its timeout
	queue    *WaitQueue // the queue it is parked on, with its links
	qprev    *Proc
	qnext    *Proc

	liveprev, livenext *Proc // Simulation's list of unfinished processes

	guard any // see GuardPark
}

// GuardPark makes every wait of the process on a WaitQueue panic with v,
// instead of parking, until it is lifted with nil. The replication layer
// arms it over an open deterministic section, where parking is a bug.
// Sleep is not a park: it models time spent working, which a section does.
func (p *Proc) GuardPark(v any) { p.guard = v }

// SetBackground marks the process, from its own code, as background work
// (or foreground again; it starts there): its resumes and time-outs, and
// the callbacks its code arms, queued from then on do not keep Run going.
func (p *Proc) SetBackground(on bool) {
	p.mustRun("SetBackground")
	p.bg = on
}

// Spawn starts fn as a new simulated process that begins running at the
// current virtual time. It may be called from the scheduler (inside an
// event callback) or from another process.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(name, 0, fn)
}

// SpawnAfter starts fn as a new simulated process that begins running after
// delay d.
func (s *Simulation) SpawnAfter(name string, d time.Duration, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:      s,
		name:     name,
		liveprev: s.liveTail,
	}
	p.switchIn, _ = iter.Pull(func(yield func(*Proc) bool) {
		p.switchOut = yield
		p.main(fn)
	})
	if s.liveTail != nil {
		s.liveTail.livenext = p
	} else {
		s.liveHead = p
	}
	s.liveTail = p
	s.liveProc++
	p.makeRunnable(d)
	return p
}

func (p *Proc) main(fn func(p *Proc)) {
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(killedPanic); ok {
				return
			}
			p.sim.failure = procPanic{proc: p.name, value: r, stack: debug.Stack()}.String()
		}()
		if !p.killed {
			fn(p)
		}
	}()
	p.finished = true
	p.sim.procDone(p)
	if p.group != nil {
		p.group.procDone(p)
	}
}

func (s *Simulation) procDone(p *Proc) {
	if p.liveprev != nil {
		p.liveprev.livenext = p.livenext
	} else {
		s.liveHead = p.livenext
	}
	if p.livenext != nil {
		p.livenext.liveprev = p.liveprev
	} else {
		s.liveTail = p.liveprev
	}
	p.liveprev, p.livenext = nil, nil
	s.liveProc--
}

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Simulation { return p.sim }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Killed reports whether the process (or its group) has been killed. A
// running process observes this before it unwinds at its next block point.
func (p *Proc) Killed() bool { return p.killed }

// Finished reports whether the process function has returned or unwound.
func (p *Proc) Finished() bool { return p.finished }

// mustRun panics unless p is the process whose code is executing: a
// blocking call made from anywhere else would hang the run.
func (p *Proc) mustRun(call string) {
	if cur := p.sim.cur; cur != p {
		if cur == nil {
			panic(fmt.Sprintf("sim: %s on process %q from an event callback or outside Run: only a process's own code may block", call, p.name))
		}
		panic(fmt.Sprintf("sim: %s on process %q, which is not running: process %q is", call, p.name, cur.name))
	}
}

// block is every block point: the process, already parked, runs the
// dispatch loop itself until its own resume fires — then it never gave
// control up and just carries on — or another process's does, which it
// hands to the driver as it switches out (nil when the run is over). If the
// process was killed in the meantime it unwinds.
func (p *Proc) block() {
	s := p.sim
	s.cur = nil
	if next := s.dispatch(p); next != p {
		p.switchOut(next)
	}
	s.cur = p
	if p.killed {
		panic(killedPanic{})
	}
}

// makeRunnable queues the process's resume after delay d. Called from a
// callback, the driver or another process, on a process that is parked (and
// already detached from what it was parked on) or not yet started. A
// process with a resume already pending is either runnable or asleep;
// queueing a second one would run it twice, so that is a bug in the caller.
func (p *Proc) makeRunnable(d time.Duration) {
	if p.resumeSeq != 0 {
		panic(fmt.Sprintf("sim: process %q made runnable while a resume is already pending", p.name))
	}
	p.parked = parkNone
	p.resumeSeq = p.sim.push(p.sim.now.Add(d), kindResume, p, nil)
}

// unpark detaches a blocked process from what it is parked on, cancelling
// the sleep or the wait timeout, and reports whether it was parked. The
// caller makes it runnable.
func (p *Proc) unpark() bool {
	switch p.parked {
	case parkSleep:
		p.sim.disown(&p.resumeSeq, p.bg)
	case parkQueue:
		p.queue.unlink(p)
		p.sim.disown(&p.timeoutSeq, p.bg)
	default:
		return false
	}
	p.parked = parkNone
	return true
}

// Sleep blocks the process for duration d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in process %q", d, p.name))
	}
	p.mustRun("Sleep")
	p.resumeSeq = p.sim.push(p.sim.now.Add(d), kindResume, p, nil)
	p.parked = parkSleep
	p.block()
}

// Kill marks the process as killed and, if it is parked, unparks it so it
// unwinds. A killed process stops at its next block point and never runs
// user code again. Kill may be called from a callback, the driver or any
// process; killing the calling process takes effect at its next block
// point. Kill is idempotent.
func (p *Proc) Kill() {
	if p.killed || p.finished {
		return
	}
	p.killed = true
	if p.unpark() {
		p.makeRunnable(0)
	}
}

// Group is a named set of processes that can be killed together — the
// simulation analogue of halting a hardware partition. Spawning into a
// killed group yields a process that unwinds before running.
type Group struct {
	sim    *Simulation
	name   string
	killed bool
	procs  []*Proc // live procs in spawn order, for deterministic kill order
}

// NewGroup returns an empty process group.
func (s *Simulation) NewGroup(name string) *Group {
	return &Group{sim: s, name: name}
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Killed reports whether the group has been killed.
func (g *Group) Killed() bool { return g.killed }

// Live reports the number of unfinished processes in the group.
func (g *Group) Live() int { return len(g.procs) }

// Spawn starts a process that belongs to the group.
func (g *Group) Spawn(name string, fn func(p *Proc)) *Proc {
	return g.SpawnAfter(name, 0, fn)
}

// SpawnAfter starts a process in the group after delay d.
func (g *Group) SpawnAfter(name string, d time.Duration, fn func(p *Proc)) *Proc {
	p := g.sim.SpawnAfter(name, d, fn)
	p.group = g
	if g.killed {
		p.Kill()
		return p
	}
	g.procs = append(g.procs, p)
	return p
}

// Kill kills every live process in the group, in spawn order, and marks the
// group so future spawns die immediately. It is idempotent.
func (g *Group) Kill() {
	if g.killed {
		return
	}
	g.killed = true
	procs := g.procs
	g.procs = nil
	for _, p := range procs {
		p.Kill()
	}
}

func (g *Group) procDone(p *Proc) {
	for i, q := range g.procs {
		if q == p {
			g.procs = append(g.procs[:i], g.procs[i+1:]...)
			return
		}
	}
}
