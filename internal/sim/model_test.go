package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The model test runs seeded random programs — processes that sleep, wait
// and wake each other, callbacks that schedule, cancel, re-arm and kill, a
// driver that advances the clock in steps — on the engine and on refQueue,
// a reference written for obviousness instead of speed: one slice sorted by
// (at, seq), cancellation by deletion, processes as program counters. The
// two must produce the same log line for line: every callback firing, every
// process switch, the result of every wait and wake, and Pending() at every
// callback.
//
// The reference also knows who holds control — the driver at the start of
// every step and after a process finishes, otherwise the last process that
// ran — which is all it takes to predict which resumes are switches: a
// resume of the holder is not one. Callbacks aim some of their ops at the
// holder, the process on whose stack the engine is firing them.
//
// Processes mark themselves background and foreground again as they go, so
// the reference knows each entry's mark — its process's for a resume or a
// time-out, the arming process's for a callback — and ends a Run when no
// foreground entry is left. After that stop a step resumes the run, and a
// last Run ends it. The same programs with every mark ignored must log the
// same lines up to the stop: the marks move nothing.
//
// The odd-numbered processes, timers and one-shots belong to a domain, a
// Group, that a kill-group op kills: its processes are killed as Kill has
// them, its pending callbacks are dropped, and arming its events from then on
// draws nothing. A process of the group that kills it unwinds at once; a
// callback of the group that does does nothing more.

type opKind int

const (
	opSleep       opKind = iota // process only
	opWait                      // process only: wait on queue a
	opWaitTimeout               // process only: wait on queue a for d
	opBackground                // process only: mark itself background (b != 0) or foreground
	opWakeOne                   // queue a, delay d
	opWakeIndex                 // queue a, index b, delay d
	opWakeAll                   // queue a, delay d
	opSchedule                  // a one-shot callback after d
	opReset                     // re-arm timer a to fire after d
	opCancel                    // cancel timer a
	opKill                      // kill process a
	opBurst                     // schedule a one-shots far out
	opWakeHolder                // wake everyone on the queue the holder is parked on, delay d
	opKillHolder                // kill the holder
	opStop                      // Stop: the step ends before anything else is popped
	opKillGroup                 // kill the domain of the odd-numbered processes and events
	numOps
)

type op struct {
	kind opKind
	a, b int
	d    time.Duration
}

func (o op) processOnly() bool { return o.kind <= opBackground }

// fireBudget is how many callbacks may act on firing; later ones only log,
// so timers that re-arm each other run out and every program ends.
const fireBudget = 400

type program struct {
	procs  [][]op          // one script per process
	starts []time.Duration // SpawnAfter delays
	queues int
	timers int
	onFire [][]op          // what callback number i (mod len) does after logging
	steps  []time.Duration // the driver's RunFor steps
	driver [][]op          // what the driver does before each step

	foreground bool // ignore opBackground: everything is foreground work
	groupKills bool // act on opKillGroup; without, the domain lives
}

// resumeStep is the step the driver takes after the first Run stops.
const resumeStep = 30 * time.Microsecond

func genProgram(rng *rand.Rand) program {
	durations := []time.Duration{0, 0, time.Microsecond, time.Microsecond, 10 * time.Microsecond, time.Millisecond}
	pg := program{queues: 3, timers: 4}
	nprocs := 4 + rng.Intn(5)
	genOp := func(processOK bool) op {
		for {
			o := op{kind: opKind(rng.Intn(int(numOps))), a: rng.Intn(8), b: rng.Intn(3),
				d: durations[rng.Intn(len(durations))]}
			if o.processOnly() && !processOK {
				continue
			}
			switch o.kind {
			case opKillGroup:
				// Rarer still in a process, and not rare in a callback, so
				// that the domain's own callbacks kill it as often as its
				// processes do.
				if processOK && rng.Intn(8) != 0 {
					continue
				}
			case opKill, opBurst, opKillHolder, opStop:
				if rng.Intn(4) != 0 || (o.kind == opStop && o.b != 0) { // keep these rare
					continue
				}
				if o.kind == opBurst {
					o.a = 40 + rng.Intn(100)
				}
			case opSleep, opWaitTimeout:
				o.d += time.Duration(rng.Intn(3)) * time.Microsecond
			}
			return o
		}
	}
	genOps := func(n int, processOK bool) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = genOp(processOK)
		}
		return ops
	}
	for i := 0; i < nprocs; i++ {
		pg.procs = append(pg.procs, genOps(10+rng.Intn(30), true))
		pg.starts = append(pg.starts, durations[rng.Intn(len(durations))])
	}
	for i := 0; i < 16; i++ {
		pg.onFire = append(pg.onFire, genOps(rng.Intn(3), false))
	}
	for i := 0; i < 12; i++ {
		pg.steps = append(pg.steps, durations[rng.Intn(len(durations))]+time.Duration(rng.Intn(20))*time.Microsecond)
		// The driver leaves the domain to its own code and to callbacks.
		pg.driver = append(pg.driver, slices.DeleteFunc(genOps(rng.Intn(4), false), func(o op) bool { return o.kind == opKillGroup }))
	}
	return pg
}

// world is what a non-blocking op needs; engineWorld and refQueue both
// implement it, and apply is the one interpreter they share.
type world interface {
	logf(format string, args ...any)
	wake(q, index int, all bool, d time.Duration) string
	schedule(d time.Duration)
	reset(timer int, d time.Duration)
	cancel(timer int)
	kill(proc int)
	killGroup()
	groupDead() bool
	holder() int           // the process holding control, -1 for the driver
	parkedOn(proc int) int // the queue it is parked on, -1 if none
	stop()
}

func apply(w world, pg *program, o op) {
	switch o.kind {
	case opWakeOne:
		w.logf("wakeone q%d -> %s", o.a%pg.queues, w.wake(o.a%pg.queues, 0, false, o.d))
	case opWakeIndex:
		w.logf("wakeindex q%d[%d] -> %s", o.a%pg.queues, o.b, w.wake(o.a%pg.queues, o.b, false, o.d))
	case opWakeAll:
		w.logf("wakeall q%d -> %s", o.a%pg.queues, w.wake(o.a%pg.queues, 0, true, o.d))
	case opSchedule:
		w.schedule(o.d)
	case opReset:
		w.reset(o.a%pg.timers, o.d)
	case opCancel:
		w.cancel(o.a % pg.timers)
	case opKill:
		w.kill(o.a % len(pg.procs))
	case opWakeHolder:
		if h := w.holder(); h >= 0 && w.parkedOn(h) >= 0 {
			w.logf("wakeholder p%d -> %s", h, w.wake(w.parkedOn(h), 0, true, o.d))
		}
	case opKillHolder:
		if h := w.holder(); h >= 0 {
			w.logf("killholder p%d", h)
			w.kill(h)
		}
	case opStop:
		w.stop()
	case opKillGroup:
		if pg.groupKills && !w.groupDead() {
			w.logf("killgroup")
			w.killGroup()
		}
	case opBurst:
		for i := 0; i < o.a; i++ {
			w.schedule(time.Second + time.Duration(i%7)*time.Millisecond)
		}
	}
}

// inGroup reports whether process i, timer i or callback i (timers first,
// one-shots from 100) belongs to the domain.
func inGroup(i int) bool { return i%2 == 1 }

// fireOps applies what callback id does, until its domain is dead.
func fireOps(w world, pg *program, id int) {
	for _, o := range pg.onFire[id%len(pg.onFire)] {
		if inGroup(id) && w.groupDead() {
			return
		}
		apply(w, pg, o)
	}
}

// engineWorld runs a program on the real engine.
type engineWorld struct {
	t           *testing.T
	pg          *program
	s           *Simulation
	g           *Group
	log         []string
	procs       []*Proc
	queues      []WaitQueue
	timers      []Event
	shots       int
	fires       int
	compactions int
	hold        int    // the process last switched in, -1 at the start of a step
	failed      string // the first failed check inside a callback, where t.Fatal would hang the run
}

func (w *engineWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d ", w.s.now)+fmt.Sprintf(format, args...))
}

// fired is the body of every callback.
func (w *engineWorld) fired(id int) {
	w.logf("fire %d pending %d", id, w.s.Pending())
	if w.fires++; w.fires%8 == 0 { // the reference checks every one; the scan is the slow second opinion
		brute, fg := 0, 0
		for i := range w.s.queue {
			if e := &w.s.queue[i]; e.live() {
				brute++
				if !e.bg {
					fg++
				}
			}
		}
		if got := w.s.Pending(); (got != brute || w.s.fg != fg) && w.failed == "" {
			w.failed = fmt.Sprintf("Pending() = %d with %d foreground, a scan of the queue finds %d live, %d foreground", got, w.s.fg, brute, fg)
		}
	}
	if w.fires > fireBudget {
		return
	}
	fireOps(w, w.pg, id)
}

func (w *engineWorld) wake(q, index int, all bool, d time.Duration) string {
	if all {
		return fmt.Sprint(w.queues[q].WakeAll(d))
	}
	if p := w.queues[q].WakeIndex(index, d); p != nil {
		return p.Name()
	}
	return "nobody"
}

func (w *engineWorld) schedule(d time.Duration) {
	id := 100 + w.shots
	w.shots++
	g := w.s.Root()
	if inGroup(id) {
		g = w.g
	}
	g.Schedule(d, func() { w.fired(id) })
}

// cancelled wraps every cancelling call: only compaction shrinks the queue
// outside the run loop.
func (w *engineWorld) cancelled(cancel func()) {
	before := len(w.s.queue)
	cancel()
	if len(w.s.queue) < before {
		w.compactions++
	}
}

func (w *engineWorld) reset(timer int, d time.Duration) {
	w.cancelled(func() { w.timers[timer].Reset(d) })
}

func (w *engineWorld) cancel(timer int) { w.cancelled(w.timers[timer].Cancel) }

func (w *engineWorld) kill(proc int) { w.cancelled(w.procs[proc].Kill) }

func (w *engineWorld) killGroup() { w.cancelled(w.g.Kill) }

func (w *engineWorld) groupDead() bool { return w.g.Killed() }

// holder is what the engine's own switches say: the hook is its only input.
func (w *engineWorld) holder() int {
	if w.hold >= 0 && w.procs[w.hold].Finished() {
		return -1
	}
	return w.hold
}

func (w *engineWorld) parkedOn(proc int) int {
	for i := range w.queues {
		if w.procs[proc].queue == &w.queues[i] {
			return i
		}
	}
	return -1
}

func (w *engineWorld) stop() { w.s.Stop() }

// stopped reports whether a run ended by Stop, and if so logs it and lets
// the simulation run again.
func (w *engineWorld) stopped(err error) bool {
	if err == nil {
		return false
	}
	if err != ErrStopped {
		w.t.Fatalf("run: %v", err)
	}
	w.logf("stopped")
	w.s.stopped = false
	return true
}

func runOnEngine(t *testing.T, pg *program) *engineWorld {
	s := New(1)
	defer s.Shutdown()
	w := &engineWorld{t: t, pg: pg, s: s, g: s.NewGroup("g"), queues: make([]WaitQueue, pg.queues), timers: make([]Event, pg.timers), hold: -1}
	s.OnSwitch = func(_ Time, name string) {
		w.logf("switch %s", name)
		fmt.Sscanf(name, "p%d", &w.hold)
	}
	for i := range w.timers {
		i := i
		g := s.Root()
		if inGroup(i) {
			g = w.g
		}
		w.timers[i].Init(g, func() { w.fired(i) })
	}
	for i, script := range pg.procs {
		i, script := i, script
		spawn := s.SpawnAfter
		if inGroup(i) {
			spawn = w.g.SpawnAfter
		}
		w.procs = append(w.procs, spawn(fmt.Sprintf("p%d", i), pg.starts[i], func(p *Proc) {
			for pc, o := range script {
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
					w.logf("p%d@%d slept", i, pc)
				case opWait:
					w.queues[o.a%pg.queues].Wait(p)
					w.logf("p%d@%d woken", i, pc)
				case opWaitTimeout:
					w.logf("p%d@%d woken=%v", i, pc, w.queues[o.a%pg.queues].WaitTimeout(p, o.d))
				case opBackground:
					if !pg.foreground {
						p.SetBackground(o.b != 0)
					}
				default:
					apply(w, pg, o)
				}
			}
		}))
	}
	for i, step := range pg.steps {
		for _, o := range pg.driver[i] {
			apply(w, pg, o)
		}
		w.stopped(s.RunFor(step))
		w.hold = -1
		w.logf("step %d pending %d live %d", i, s.Pending(), s.Live())
	}
	run := func(what string) {
		for w.stopped(s.Run()) {
			w.hold = -1
		}
		w.hold = -1
		w.logf("%s pending %d live %d", what, s.Pending(), s.Live())
	}
	run("idle")
	w.stopped(s.RunFor(resumeStep))
	w.hold = -1
	w.logf("resumed pending %d live %d", s.Pending(), s.Live())
	run("done")
	if w.failed != "" {
		t.Fatal(w.failed)
	}
	return w
}

// refQueue is the reference: the same program on a sorted slice.
type refQueue struct {
	pg      *program
	now     Time
	seq     uint64
	entries []refEntry // sorted by (at, seq); cancelling deletes
	log     []string
	procs   []refProc
	queues  [][]int  // process numbers, longest waiting first
	timers  []uint64 // seq of the pending firing, 0 if none
	shots   []uint64
	fires   int
	hold    int  // who holds control: a process number, -1 for the driver
	running int  // the process whose own code runs, -1 for the driver and callbacks
	stopped bool // Stop was called: nothing more is popped this step
	gDead   bool // the domain is dead

	// How often the programs reached what the rules are about: a process
	// woken, killed or timed out on its own stack, a step that ended with
	// a process mid-wait holding control, a run ended by Stop, a Run ended
	// with only background entries left.
	selfWakes, selfKills, selfTimeouts, midWait, stops, backgroundStops int
	// And a domain killed by its own process, by its own callback, and
	// with callbacks of its own pending.
	groupSelfKills, groupCallbackKills, groupCancels int
}

type refEntry struct {
	at   Time
	seq  uint64
	kind string // "timer", "shot", "resume", "timeout"
	id   int
	bg   bool
}

type refProc struct {
	pc         int
	state      string // "runnable" (or running), "sleeping", "queued", "finished"
	started    bool
	killed     bool
	bg         bool
	resumeSeq  uint64
	timeoutSeq uint64
	queue      int
	timedOut   bool
}

func (r *refQueue) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%d ", r.now)+fmt.Sprintf(format, args...))
}

// insert queues an entry. A resume or time-out carries its process's mark,
// a callback the mark of the process whose code arms it.
func (r *refQueue) insert(d time.Duration, kind string, id int) uint64 {
	r.seq++
	e := refEntry{at: r.now.Add(d), seq: r.seq, kind: kind, id: id, bg: r.running >= 0 && r.procs[r.running].bg}
	if kind == "resume" || kind == "timeout" {
		e.bg = r.procs[id].bg
	}
	// The newest entry has the highest seq: it goes after all with at <= its own.
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].at > e.at })
	r.entries = append(r.entries, refEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
	return r.seq
}

// remove deletes the entry numbered *seq, if any, and zeroes the number.
func (r *refQueue) remove(seq *uint64) {
	for i, e := range r.entries {
		if e.seq == *seq {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			break
		}
	}
	*seq = 0
}

func (r *refQueue) makeRunnable(i int, d time.Duration) {
	p := &r.procs[i]
	p.state = "runnable"
	p.resumeSeq = r.insert(d, "resume", i)
}

func (r *refQueue) leaveQueue(i int) {
	p := &r.procs[i]
	q := r.queues[p.queue]
	for k, x := range q {
		if x == i {
			r.queues[p.queue] = append(q[:k:k], q[k+1:]...)
			break
		}
	}
	r.remove(&p.timeoutSeq)
}

func (r *refQueue) wake(q, index int, all bool, d time.Duration) string {
	if all {
		n := len(r.queues[q])
		for len(r.queues[q]) > 0 {
			r.wake(q, 0, false, d)
		}
		return fmt.Sprint(n)
	}
	if index >= len(r.queues[q]) {
		return "nobody"
	}
	i := r.queues[q][index]
	r.leaveQueue(i)
	r.makeRunnable(i, d)
	return fmt.Sprintf("p%d", i)
}

func (r *refQueue) schedule(d time.Duration) {
	r.shots = append(r.shots, 0)
	id := len(r.shots) - 1
	if !inGroup(id) || !r.gDead {
		r.shots[id] = r.insert(d, "shot", id)
	}
}

func (r *refQueue) reset(timer int, d time.Duration) {
	r.remove(&r.timers[timer])
	if !inGroup(timer) || !r.gDead {
		r.timers[timer] = r.insert(d, "timer", timer)
	}
}

func (r *refQueue) cancel(timer int) { r.remove(&r.timers[timer]) }

func (r *refQueue) kill(i int) {
	p := &r.procs[i]
	if p.killed || p.state == "finished" {
		return
	}
	p.killed = true
	switch p.state {
	case "sleeping":
		r.remove(&p.resumeSeq)
		r.makeRunnable(i, 0)
	case "queued":
		r.leaveQueue(i)
		r.makeRunnable(i, 0)
	case "runnable":
		// A delayed wake-up still pending is brought forward to the kill.
		for _, e := range r.entries {
			if e.seq == p.resumeSeq && e.at > r.now {
				r.remove(&p.resumeSeq)
				r.makeRunnable(i, 0)
				break
			}
		}
	}
}

// killGroup kills the domain's processes in spawn order, then deletes its
// pending callbacks.
func (r *refQueue) killGroup() {
	r.gDead = true
	for i := range r.procs {
		if inGroup(i) {
			r.kill(i)
		}
	}
	kept := r.entries[:0]
	for _, e := range r.entries {
		if (e.kind == "timer" || e.kind == "shot") && inGroup(e.id) {
			r.groupCancels++
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	for i := range r.timers {
		if inGroup(i) {
			r.timers[i] = 0
		}
	}
	for i := range r.shots {
		if inGroup(i) {
			r.shots[i] = 0
		}
	}
}

func (r *refQueue) groupDead() bool { return r.gDead }

func (r *refQueue) holder() int { return r.hold }

func (r *refQueue) parkedOn(i int) int {
	if r.procs[i].state != "queued" {
		return -1
	}
	return r.procs[i].queue
}

func (r *refQueue) stop() { r.stopped = true }

func (r *refQueue) fired(id int) {
	r.logf("fire %d pending %d", id, len(r.entries))
	if r.fires++; r.fires > fireBudget {
		return
	}
	fireOps(r, r.pg, id)
	if inGroup(id) && r.gDead {
		r.groupCallbackKills++
	}
}

// resume runs process i from where it blocked until it blocks again.
func (r *refQueue) resume(i int) {
	p := &r.procs[i]
	p.resumeSeq = 0
	if p.state == "finished" {
		return
	}
	self := r.hold == i
	if !self {
		r.logf("switch p%d", i)
	}
	r.hold = i
	p.state = "runnable"
	if p.killed {
		if self {
			r.selfKills++
		}
		p.state, r.hold = "finished", -1
		return
	}
	script := r.pg.procs[i]
	if p.started {
		switch o := script[p.pc]; o.kind {
		case opSleep:
			r.logf("p%d@%d slept", i, p.pc)
		case opWait:
			r.logf("p%d@%d woken", i, p.pc)
		case opWaitTimeout:
			r.logf("p%d@%d woken=%v", i, p.pc, !p.timedOut)
		}
		if self && script[p.pc].kind != opSleep && !p.timedOut {
			r.selfWakes++
		}
		p.pc++
	}
	p.started = true
	r.running = i
	defer func() { r.running = -1 }()
	for ; p.pc < len(script); p.pc++ {
		o := script[p.pc]
		switch o.kind {
		case opSleep:
			p.state = "sleeping"
			p.resumeSeq = r.insert(o.d, "resume", i)
			return
		case opWait, opWaitTimeout:
			p.state, p.queue, p.timedOut = "queued", o.a%r.pg.queues, false
			if o.kind == opWaitTimeout {
				p.timeoutSeq = r.insert(o.d, "timeout", i)
			}
			r.queues[p.queue] = append(r.queues[p.queue], i)
			return
		case opBackground:
			if !r.pg.foreground {
				p.bg = o.b != 0
			}
		default:
			apply(r, r.pg, o)
			if o.kind == opKillGroup && inGroup(i) && r.pg.groupKills {
				r.groupSelfKills++
				p.state, r.hold = "finished", -1 // unwound from the kill
				return
			}
		}
	}
	p.state, r.hold = "finished", -1
}

// foreground reports whether an entry that is not background work is
// pending.
func (r *refQueue) foreground() bool {
	for _, e := range r.entries {
		if !e.bg {
			return true
		}
	}
	return false
}

// run is one step: the driver takes control and entries fire in order until
// the queue is empty, the next is beyond the step, Stop was called, or — a
// Run, with no bound — only background entries are left.
func (r *refQueue) run(until Time) {
	for !r.stopped && len(r.entries) > 0 && r.entries[0].at <= until && (until != never || r.foreground()) {
		e := r.entries[0]
		r.entries = r.entries[1:]
		r.now = e.at
		switch e.kind {
		case "timer":
			r.timers[e.id] = 0
			r.fired(e.id)
		case "shot":
			r.shots[e.id] = 0
			r.fired(100 + e.id)
		case "resume":
			r.resume(e.id)
		case "timeout":
			r.procs[e.id].timeoutSeq = 0
			r.leaveQueue(e.id)
			r.procs[e.id].timedOut = true
			r.makeRunnable(e.id, 0)
			if r.hold == e.id {
				r.selfTimeouts++
			}
		}
	}
	if r.hold >= 0 && r.procs[r.hold].state != "runnable" {
		r.midWait++
	}
	r.hold = -1
	switch {
	case r.stopped:
		r.logf("stopped")
		r.stops++
	case until != never && r.now < until:
		r.now = until
	case until == never && len(r.entries) > 0:
		r.backgroundStops++
	}
}

func (r *refQueue) live() int {
	n := 0
	for _, p := range r.procs {
		if p.state != "finished" {
			n++
		}
	}
	return n
}

func runOnReference(pg *program) *refQueue {
	r := &refQueue{pg: pg, procs: make([]refProc, len(pg.procs)), queues: make([][]int, pg.queues),
		timers: make([]uint64, pg.timers), hold: -1, running: -1}
	for i := range pg.procs {
		r.makeRunnable(i, pg.starts[i])
	}
	for i, step := range pg.steps {
		for _, o := range pg.driver[i] {
			apply(r, pg, o)
		}
		r.run(r.now.Add(step))
		r.stopped = false
		r.logf("step %d pending %d live %d", i, len(r.entries), r.live())
	}
	run := func(what string) {
		for r.run(never); r.stopped; r.run(never) {
			r.stopped = false
		}
		r.logf("%s pending %d live %d", what, len(r.entries), r.live())
	}
	run("idle")
	r.run(r.now.Add(resumeStep))
	r.stopped = false
	r.logf("resumed pending %d live %d", len(r.entries), r.live())
	run("done")
	return r
}

func TestEngineMatchesReferenceQueue(t *testing.T) {
	compactions, switches := 0, 0
	var reached refQueue // the sums of the reference's counters
	for run := int64(0); run < 240; run++ {
		// Every program runs twice: with its kill-group ops, and without.
		seed := run/2 + 1
		pg := genProgram(rand.New(rand.NewSource(seed)))
		pg.groupKills = run%2 == 1
		got, want := runOnEngine(t, &pg), runOnReference(&pg)
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				from := i - 5
				if from < 0 {
					from = 0
				}
				t.Fatalf("seed %d (group kills %v): engine and reference part at line %d\nreference: %s\nengine:    %s\nbefore that:\n%s",
					seed, pg.groupKills, i, want.log[i], strings.Join(got.log[i:min(i+1, len(got.log))], ""), strings.Join(want.log[from:i], "\n"))
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got.log), len(want.log))
		}
		if got.s.seq != want.seq {
			t.Fatalf("seed %d: engine drew %d sequence numbers, reference %d", seed, got.s.seq, want.seq)
		}
		// Up to the first Run's stop the marks move nothing: the program
		// with every mark ignored logs the same lines.
		fgPg := pg
		fgPg.foreground = true
		fg := runOnEngine(t, &fgPg)
		stop := 0
		for !strings.Contains(got.log[stop], " idle pending ") {
			stop++
		}
		if stop > len(fg.log) || strings.Join(got.log[:stop], "\n") != strings.Join(fg.log[:stop], "\n") {
			t.Fatalf("seed %d: background marks changed what ran before the stop at line %d", seed, stop)
		}
		compactions += got.compactions
		reached.selfWakes += want.selfWakes
		reached.selfKills += want.selfKills
		reached.selfTimeouts += want.selfTimeouts
		reached.midWait += want.midWait
		reached.stops += want.stops
		reached.backgroundStops += want.backgroundStops
		reached.groupSelfKills += want.groupSelfKills
		reached.groupCallbackKills += want.groupCallbackKills
		reached.groupCancels += want.groupCancels
		for _, l := range got.log {
			if strings.Contains(l, " switch ") {
				switches++
			}
		}
	}
	// The comparison means little unless the programs reach the machinery.
	t.Logf("%d compactions, %d switches; on its own stack a process was woken %d times, killed %d, timed out %d; %d steps ended mid-wait, %d by Stop; %d Runs left background work queued; the domain was killed by its own process %d times and by its own callback %d, dropping %d pending callbacks",
		compactions, switches, reached.selfWakes, reached.selfKills, reached.selfTimeouts, reached.midWait, reached.stops, reached.backgroundStops,
		reached.groupSelfKills, reached.groupCallbackKills, reached.groupCancels)
	if compactions == 0 || switches < 1000 {
		t.Errorf("120 programs compacted the queue %d times and switched %d times: not a test of either", compactions, switches)
	}
	for _, n := range []int{reached.selfWakes, reached.selfKills, reached.selfTimeouts, reached.midWait, reached.stops, reached.backgroundStops,
		reached.groupSelfKills, reached.groupCallbackKills, reached.groupCancels} {
		if n < 20 {
			t.Errorf("the programs hardly reach the self-resume rule: see the counts above")
			break
		}
	}
}
