package sim

import (
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand/v2"
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
	resumeAt   Time // when the pending resume of makeRunnable fires

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

// Blocked reports what the process waits on: "sleep" in Sleep, "wait" on a
// wait queue, "" while it runs or is runnable.
func (p *Proc) Blocked() string {
	switch p.parked {
	case parkSleep:
		return "sleep"
	case parkQueue:
		return "wait"
	}
	return ""
}

// Background reports whether the process marked itself background work.
func (p *Proc) Background() bool { return p.bg }

// Procs returns the unfinished processes, in spawn order.
func (s *Simulation) Procs() iter.Seq[*Proc] {
	return func(yield func(*Proc) bool) {
		for p := s.liveHead; p != nil && yield(p); p = p.livenext {
		}
	}
}

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
	p.resumeAt = p.sim.now.Add(d)
	p.resumeSeq = p.sim.push(p.resumeAt, kindResume, p, nil)
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

// Kill marks the process as killed and makes it runnable now so it
// unwinds: if it is parked it is unparked, and a delayed wake-up (or start)
// still pending is brought forward to the kill. A killed process stops at
// its next block point and never runs user code again. Kill may be called
// from a callback, from Run's caller or from any process; killing the
// calling process takes effect at its next block point. Kill is idempotent.
func (p *Proc) Kill() {
	if p.killed || p.finished {
		return
	}
	p.killed = true
	if p.unpark() || p.resumeSeq != 0 && p.resumeAt > p.sim.now {
		p.sim.disown(&p.resumeSeq, p.bg)
		p.makeRunnable(0)
	}
}

// Group is a domain: a named set of processes and events that die
// together, as a hardware partition halts. What belongs to no partition
// lives in the root domain (Simulation.Root), which never dies.
type Group struct {
	sim    *Simulation
	name   string
	killed bool
	key    uint64 // FNV-64a of name: the stream's key
	rng    *rand.Rand
}

// NewGroup returns an empty domain. Its random stream is seeded with the
// simulation's seed and the FNV-64a hash of name, so it is the same whatever
// other domains exist or draw; names are unique within a simulation.
func (s *Simulation) NewGroup(name string) *Group {
	h := fnv.New64a()
	h.Write([]byte(name))
	key := h.Sum64()
	return &Group{sim: s, name: name, key: key, rng: rand.New(rand.NewPCG(uint64(s.seed), key))}
}

// Salt reseeds a domain that has drawn nothing yet with salt folded into its
// stream's key, and returns it; salt 0 leaves the stream as it is. A run
// salts a domain to vary, on purpose, draws its outcome must not depend on.
func (g *Group) Salt(salt uint64) *Group {
	if salt != 0 {
		g.rng = rand.New(rand.NewPCG(uint64(g.sim.seed), g.key^salt))
	}
	return g
}

// Rand returns the domain's deterministic random stream: every draw made on
// the domain's behalf comes from it.
func (g *Group) Rand() *rand.Rand { return g.rng }

// Killed reports whether the group has been killed.
func (g *Group) Killed() bool { return g.killed }

// Spawn starts a process that belongs to the group.
func (g *Group) Spawn(name string, fn func(p *Proc)) *Proc {
	return g.SpawnAfter(name, 0, fn)
}

// SpawnAfter starts a process in the group after delay d; in a dead one it never runs.
func (g *Group) SpawnAfter(name string, d time.Duration, fn func(p *Proc)) *Proc {
	p := g.sim.SpawnAfter(name, d, fn)
	if p.group = g; g.killed {
		p.Kill()
	}
	return p
}

// Kill kills the domain: its live processes, in spawn order, which unwind as
// Proc.Kill has them, and its events — one pass over the queue drops their
// pending callbacks, and Reset and Schedule on them do nothing from then on.
// A process of the group that kills it unwinds at once. Kill is idempotent.
func (g *Group) Kill() {
	s := g.sim
	if g.killed {
		return
	}
	g.killed = true
	for p := range s.Procs() {
		if p.group == g {
			p.Kill()
		}
	}
	if s.compact(g); s.cur != nil && s.cur.group == g {
		panic(killedPanic{})
	}
}
