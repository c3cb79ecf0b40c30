// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides a virtual clock, a time-ordered event queue, and
// simulated processes (Proc), each a runtime coroutine. At most one process
// runs at a time and all ties are broken by insertion order, so a simulation
// is fully deterministic for a given seed: running it twice produces the
// identical sequence of events, process switches, and random numbers.
//
// There is one dispatch loop, and whoever has nothing else to do runs it:
// the goroutine that called Run (the driver), or a process at its own block
// point, which fires the callbacks that are due on its own stack and simply
// carries on when the next process to run is itself. The order of a run is
// the order of (at, seq) in the queue, so which of them pops an entry cannot
// change what fires next.
//
// Processes and events belong to domains (Group), as hardware to partitions:
// a killed domain's pending work is dropped, and it never acts again. Each
// domain draws from a random stream of its own, a function of the seed and
// its name alone, so no domain's draws move another's.
//
// Everything else in this repository — the simulated hardware, the kernels,
// the replication protocol, and the benchmark workloads — is built on this
// package.
package sim

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// Time is an instant in virtual time, expressed in nanoseconds since the
// start of the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation started.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the simulation started.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled on the simulation. An owner that re-arms —
// a retransmission timer, a timeslice — keeps one Event (embedded by value
// if it likes), calls Init once, and arms it with Reset as often as it
// needs without allocating. Schedule arms a one-shot record instead, taken
// from the simulation's free list; nothing can cancel it. Every event
// belongs to a domain (Group), and never fires once it is dead.
type Event struct {
	group   *Group
	fn      func()
	at      Time
	seq     uint64 // sequence number of the pending queue entry, 0 if none
	bg      bool   // the pending entry is background work
	own     bool   // SetBackground: every arming is background work
	oneShot bool   // a Schedule record: freed when it fires or its domain dies
}

// Init binds a zero Event to its domain and to the callback that runs each
// time it fires. The event starts unarmed.
func (e *Event) Init(g *Group, fn func()) {
	e.group = g
	e.fn = fn
}

// At reports the virtual time at which the event fires (or last fired).
func (e *Event) At() Time { return e.at }

// Armed reports whether the event is scheduled and has not yet fired.
func (e *Event) Armed() bool { return e.seq != 0 }

// Cancel prevents the event from firing. Cancelling an event that already
// fired, was already cancelled or was never armed (or even initialised) is
// a no-op.
func (e *Event) Cancel() {
	if e.seq != 0 {
		e.group.sim.disown(&e.seq, e.bg)
	}
}

// SetBackground makes every arming of the event from the next one on
// background work (Proc.SetBackground), whoever arms it, and, while it is
// on, what the event's callback arms, as a background process's code does.
func (e *Event) SetBackground(on bool) { e.own = on }

// Reset arms the event to fire at now+d, replacing any firing still
// pending. Like Schedule it draws exactly one sequence number, so an
// owner that cancels and re-schedules can call Reset instead without
// moving anything in the event order. In a dead domain it does nothing.
func (e *Event) Reset(d time.Duration) {
	s := e.group.sim
	if s.Guard("Event.Reset"); e.group.killed {
		return
	}
	s.disown(&e.seq, e.bg)
	e.bg = e.own || s.background()
	e.at = s.now.Add(d)
	e.seq = s.push(e.at, kindCallback, nil, e)
}

// entryKind says what firing a queue entry does.
type entryKind uint8

const (
	kindCallback entryKind = iota // run ev.fn on whichever stack runs the loop
	kindResume                    // process p runs next
	kindTimeout                   // p's WaitTimeout expired: take it off its queue
)

// entry is one slot of the event queue. Entries are values and are never
// removed from the middle: the owner (an Event, or a Proc for its one
// pending resume and its one pending timeout) remembers the sequence
// number of its pending entry, and an entry whose number no longer matches
// is dead and is skipped when it surfaces.
type entry struct {
	at   Time
	seq  uint64
	kind entryKind
	bg   bool // background work: its owner's mark when queued
	p    *Proc
	ev   *Event
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (e *entry) live() bool {
	switch e.kind {
	case kindCallback:
		return e.ev.seq == e.seq
	case kindResume:
		return e.p.resumeSeq == e.seq
	default:
		return e.p.timeoutSeq == e.seq
	}
}

// compactMin is the queue length below which dead entries are left to
// surface on their own.
const compactMin = 64

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = errors.New("sim: stopped")

// Simulation owns the virtual clock, the event queue, and all processes.
// A Simulation must be created with New and is not safe for concurrent use;
// it is driven from a single goroutine by Run or RunUntil.
type Simulation struct {
	now     Time
	queue   []entry // 4-ary min-heap on (at, seq)
	dead    int     // entries in queue that are no longer live
	fg      int     // live entries that are not background work
	seq     uint64
	seed    int64 // every domain's random stream is split from it
	stopped bool
	failure any // panic value on its way to Run's caller

	until  Time   // the bound of the run in progress; never for Run, which also ends when fg is 0
	cur    *Proc  // the process whose code is executing; nil in the driver and in callbacks
	root   *Group // the domain that never dies
	firing *Group // the domain of the callback firing, nil when none is
	owner  *Event // the event whose callback fired last (a one-shot is never marked)

	spare []*Event // freed one-shot records, reused last in, first out

	// Unfinished processes in spawn order, linked through Proc.
	liveHead, liveTail *Proc
	liveProc           int

	// OnSwitch, if non-nil, is invoked each time the driver switches a
	// process in, with the current virtual time and the process name: once
	// per transfer of control into a process. A process that blocks and is
	// itself the next to run never gave control up, so there is no switch
	// and no call. It exists so tests can record and compare execution
	// traces and the benchmark can count switches.
	OnSwitch func(Time, string)
}

// New returns a simulation whose domains' random streams are split from seed.
func New(seed int64) *Simulation {
	s := &Simulation{seed: seed}
	s.root = s.NewGroup("root")
	return s
}

// Root returns the domain that never dies: the wire's, the fabric's, the clients'.
func (s *Simulation) Root() *Group { return s.root }

// Now reports the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Pending reports the number of scheduled (uncancelled) events.
func (s *Simulation) Pending() int { return len(s.queue) - s.dead }

// Live reports the number of processes that have been spawned and have not
// yet finished.
func (s *Simulation) Live() int { return s.liveProc }

// Schedule arranges for fn to run at virtual time now+d, on the stack of
// whoever is running the dispatch loop then, in the root domain. It must
// not block (a blocking call from a callback panics): spawn a Proc for that.
func (s *Simulation) Schedule(d time.Duration, fn func()) { s.root.Schedule(d, fn) }

// ScheduleAt is like Schedule but takes an absolute instant. Scheduling in
// the past panics: it would violate causality.
func (s *Simulation) ScheduleAt(at Time, fn func()) { s.root.Schedule(at.Sub(s.now), fn) }

// Schedule is Simulation.Schedule in the group's domain; in a dead one
// nothing is armed.
func (g *Group) Schedule(d time.Duration, fn func()) {
	s := g.sim
	if s.Guard("Schedule"); g.killed {
		return
	}
	var e *Event
	if n := len(s.spare); n > 0 {
		e, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		e = &Event{oneShot: true}
	}
	e.group, e.fn, e.at, e.bg = g, fn, s.now.Add(d), s.background()
	e.seq = s.push(e.at, kindCallback, nil, e)
}

// background reports whether what the running code arms is background
// work: a process's mark, or in a callback its event's (Event.SetBackground).
func (s *Simulation) background() bool {
	if s.cur != nil {
		return s.cur.bg
	}
	return s.owner != nil && s.owner.own
}

// free puts a one-shot record whose arming is over back on the free list.
// Its callback is dropped, so the record keeps nothing alive; in test
// binaries it becomes one that panics, so an engine fault that fires a
// freed record is named instead of running another arming's callback.
func (s *Simulation) free(e *Event) {
	e.fn = freedFn
	s.spare = append(s.spare, e)
}

var freedFn = func() func() {
	if !testing.Testing() {
		return nil
	}
	return func() { panic("sim: a freed one-shot event fired") }
}()

// Guard panics, in test binaries and once ArmGuards has run, if the code
// running does so on behalf of a dead domain — a killed group's process
// unwinding, or its callback running on after the kill — naming call: arming
// an event, a ring send, a transmit, a driver load. None of that can reach a
// live domain from a dead one.
func (s *Simulation) Guard(call string) {
	g := s.firing
	if s.cur != nil {
		g = s.cur.group
	}
	if g != nil && g.killed && guardsArmed {
		panic(fmt.Sprintf("sim: %s on behalf of dead domain %q", call, g.name))
	}
}

var guardsArmed = testing.Testing()

// ArmGuards makes Guard panic outside test binaries too, in every
// simulation of the process: a fuzzer's oracle. Call it before any
// simulation runs.
func ArmGuards() { guardsArmed = true }

// push draws the next sequence number and queues an entry under it. Every
// ordering decision of the engine is a call to push; nothing else draws a
// number, and cancelling never does.
func (s *Simulation) push(at Time, kind entryKind, p *Proc, ev *Event) uint64 {
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at=%v now=%v", at, s.now))
	}
	s.seq++
	bg := p != nil && p.bg || ev != nil && ev.bg
	if !bg {
		s.fg++
	}
	s.queue = append(s.queue, entry{at: at, seq: s.seq, kind: kind, bg: bg, p: p, ev: ev})
	s.siftUp(len(s.queue) - 1)
	return s.seq
}

func (s *Simulation) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = entry{}
	s.queue = q[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return top
}

func (s *Simulation) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (s *Simulation) siftDown(i int) {
	q := s.queue
	e := q[i]
	for {
		first := 4*i + 1
		if first >= len(q) {
			break
		}
		last := first + 4
		if last > len(q) {
			last = len(q)
		}
		min := first
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
}

// disown cancels the pending entry whose number the owner keeps in *seq, if
// there is one (bg is the owner's mark, which is the entry's): the number is
// zeroed, the entry left in the queue is dead, and the queue is compacted
// once more than half of it is.
func (s *Simulation) disown(seq *uint64, bg bool) {
	if *seq == 0 {
		return
	}
	*seq = 0
	if !bg {
		s.fg--
	}
	s.dead++
	if s.dead*2 > len(s.queue) && len(s.queue) >= compactMin {
		s.compact(nil)
	}
}

// compact rebuilds the queue from its live entries, less (cancelled) the
// callbacks of g. The order is total on (at, seq), so which entries the
// heap still holds cannot change what fires next.
func (s *Simulation) compact(g *Group) {
	q := s.queue
	kept := q[:0]
	for _, e := range q {
		switch {
		case !e.live():
		case e.kind == kindCallback && e.ev.group == g:
			e.ev.seq = 0
			if !e.bg {
				s.fg--
			}
			if e.ev.oneShot {
				s.free(e.ev)
			}
		default:
			kept = append(kept, e)
		}
	}
	clear(q[len(kept):])
	s.queue, s.dead = kept, 0
	for i := (len(kept) - 2) / 4; i >= 0 && len(kept) > 1; i-- {
		s.siftDown(i)
	}
}

// Stop halts the simulation: Run returns ErrStopped once the currently
// running process blocks or finishes.
func (s *Simulation) Stop() { s.stopped = true }

// never is later than every instant an entry can carry.
const never = Time(math.MaxInt64)

// Run processes events until only background ones (Proc.SetBackground) are
// pending, Stop is called, or a process panics (in which case Run re-panics
// with the original value and a note naming the process; a panic raised by a
// callback reaches Run's caller as it was raised). Processes parked with no
// pending wake-up stay parked; callers can detect that via Live.
func (s *Simulation) Run() error { return s.run(never) }

// RunUntil processes events with firing time <= t, background or not, then
// advances the clock to exactly t and returns. Events after t stay pending.
func (s *Simulation) RunUntil(t Time) error {
	err := s.run(t)
	if err == nil && s.now < t && !s.stopped {
		s.now = t
	}
	return err
}

// RunFor is shorthand for RunUntil(Now()+d).
func (s *Simulation) RunFor(d time.Duration) error { return s.RunUntil(s.now.Add(d)) }

// run is the driver: it runs the dispatch loop until a process has to be
// switched in, switches it in, and takes over again when a process switches
// back out — with the successor it names, or with none because it finished
// or found the run over. Every OnSwitch call is made here.
func (s *Simulation) run(until Time) error {
	s.until = until
	for p := s.dispatch(nil); p != nil; {
		if s.OnSwitch != nil {
			s.OnSwitch(s.now, p.name)
		}
		s.cur = p
		p, _ = p.switchIn()
		s.cur = nil
		if p == nil {
			p = s.dispatch(nil)
		}
	}
	s.firing, s.owner = nil, nil
	if f := s.failure; f != nil {
		s.failure = nil
		panic(f)
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// dispatch is the engine's one loop. It pops and fires entries in (at, seq)
// order — callbacks and wait time-outs inline, on the caller's stack — until
// a process's resume fires, and returns that process; it returns nil when
// the run is over (a failure on its way out, Stop, an empty queue, the next
// entry beyond the run's bound, no foreground one left for Run), which it
// tests before every pop, so nothing popped is ever lost. The driver calls it
// with self == nil. A process calls it at its own block point: if it gets
// itself back it just carries on, otherwise it switches out to the driver
// naming what it got. On a process's stack a panic from a callback must not
// unwind the process it happened to fire on: it is kept, as raised, for the
// driver to raise, and the run is over. The stack that raised it is lost
// that way, so it is printed here.
func (s *Simulation) dispatch(self *Proc) (next *Proc) {
	defer func() {
		if self == nil {
			return // already on the stack of Run's caller
		}
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "sim: panic in a callback fired on the stack of process %q: %v\n%s", self.name, r, debug.Stack())
			s.failure, next = r, nil
		}
	}()
	for s.failure == nil && !s.stopped && len(s.queue) > 0 && s.queue[0].at <= s.until && (s.fg > 0 || s.until != never) {
		e := s.pop()
		if !e.live() {
			s.dead--
			continue
		}
		if !e.bg {
			s.fg--
		}
		if e.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", e.at, s.now))
		}
		s.now = e.at
		switch p := e.p; e.kind {
		case kindCallback:
			ev, fn := e.ev, e.ev.fn
			ev.seq = 0
			s.firing, s.owner = ev.group, ev
			if ev.oneShot { // freed first: a callback that re-schedules itself reuses it
				s.free(ev)
			}
			if !ev.group.hung {
				fn()
			}
		case kindResume:
			p.resumeSeq = 0
			p.parked = parkNone
			if p.group != nil && p.group.hung && !p.killed {
				p.parked = parkHung // Kill makes it runnable again
			} else if !p.finished {
				return p
			}
		case kindTimeout:
			p.timeoutSeq = 0
			p.queue.unlink(p)
			p.timedOut = true
			p.makeRunnable(0)
		}
	}
	return nil
}

// Shutdown ends the simulation: every unfinished process is killed and its
// coroutine unwound (deferred functions run; one that never started ends
// without running), in spawn order, and whatever is still queued is dropped.
// Without it a finished run leaves one parked goroutine per unfinished
// process behind for as long as the program lives. It must be called from
// outside Run, and the simulation cannot run again.
func (s *Simulation) Shutdown() {
	s.stopped = true // a process that blocks while unwinding dispatches nothing
	for p := s.liveHead; p != nil; p = s.liveHead {
		// A deferred function that blocks parks p again; it stays at the
		// head and unwinds a little further each time round.
		p.killed = true
		p.unpark()
		s.cur = p
		p.switchIn()
		s.cur = nil
	}
	s.queue, s.dead, s.fg = nil, 0, 0
	if f := s.failure; f != nil {
		s.failure = nil
		panic(f)
	}
}
