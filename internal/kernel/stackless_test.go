package kernel

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/shm"
	"repro/internal/sim"
)

// consumerWorld is one run of a seeded program: arrivals on a ring or a
// lane, a consumer that receives them and pays each message's cost before
// applying it, and two hogs that sleep and compute on the same contended
// cores. Off the ring the consumer receives in batches of up to three and
// waits on the ring; off the lane it pays for the lane's head before
// popping it and parks until an arrival wakes it. The consumer is a parked
// task or a stackless one; everything else is the same program.
type consumerWorld struct {
	s    *sim.Simulation
	k    *Kernel
	ring *shm.Ring
	hogs []*Task
	log  []step

	lane      []shm.Message // lane[laneHead:] arrived and not applied
	laneHead  int
	laneQ     sim.WaitQueue // the parked consumer's wait for the lane
	viaLane   bool
	stackless bool

	handoffs map[sim.Time]bool // instants a hand-off's dispatch fires at

	// The stackless consumer's state: q[head:] received and not applied.
	q            []shm.Message
	head         int
	task         *Task
	recvK, paidK func()
}

// step is one observation: what happened, when, and the scheduler's state
// right after it.
type step struct {
	At               sim.Time
	What             string
	ID               uint64
	Idle, Runnable   int
	ComputeNS        int64
	ConsumerFinished bool
	Backlog          int
}

// A dead kernel's scheduler is not observed: a killed process unwinds
// through it, a stackless task never runs again, and neither is visible.
func (w *consumerWorld) note(what string, id uint64) {
	st := step{At: w.s.Now(), What: what, ID: id, ComputeNS: w.k.computeNS, Backlog: w.ring.Len() + len(w.lane) - w.laneHead}
	if w.k.Alive() {
		st.Idle, st.Runnable, st.ConsumerFinished = w.k.IdleCores(), w.k.Runnable(), w.task.finished
	}
	w.log = append(w.log, st)
}

// arrive hands a batch to the consumer.
func (w *consumerWorld) arrive(t testing.TB, batch []shm.Message) {
	switch {
	case !w.viaLane:
		if !w.ring.TrySendBatch(batch) {
			t.Error("ring refused a batch")
		}
	case w.stackless:
		w.lane = append(w.lane, batch...)
		w.task.Wake()
	default:
		w.lane = append(w.lane, batch...)
		w.laneQ.WakeAll(0)
	}
}

// popLane pops the lane's head and applies it.
func (w *consumerWorld) popLane() {
	m := w.lane[w.laneHead]
	w.lane, w.laneHead = sim.PopFront(w.lane, w.laneHead)
	w.note("apply", m.W[0])
}

// cost is a message's fixed cost: up to two quanta, and zero for one in
// eight, to cover Compute of nothing.
func cost(m shm.Message) time.Duration { return time.Duration(m.W[1]) }

// newConsumerWorld boots the program for seed on cores cores. The consumer
// is spawned between the two hogs, so a kernel panic kills it in the middle
// of their group order.
func newConsumerWorld(t testing.TB, seed int64, cores int, viaLane, stackless bool) *consumerWorld {
	s := sim.New(seed)
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(part, Config{Name: "k", Cores: cores, Params: Params{
		Quantum:         15 * time.Microsecond,
		ContextSwitch:   2 * time.Microsecond,
		WakeBase:        time.Microsecond,
		IdleThreshold:   0,
		IdleWakeMin:     5 * time.Microsecond,
		IdleWakeMax:     9 * time.Microsecond,
		WakePreemptProb: 0.5,
		FutexFIFO:       true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := &consumerWorld{s: s, k: k, ring: shm.NewFabric(s, time.Microsecond).NewRing("work", 0, 1<<20), handoffs: map[sim.Time]bool{},
		viaLane: viaLane, stackless: stackless}
	prog := rand.New(rand.NewSource(seed))
	id := uint64(0)
	for at := time.Duration(0); at < 250*time.Microsecond; at += time.Duration(1+prog.Intn(50)) * time.Microsecond {
		batch := make([]shm.Message, 1+prog.Intn(4))
		for i := range batch {
			id++
			c := time.Duration(1+prog.Intn(30)) * time.Microsecond
			if prog.Intn(8) == 0 {
				c = 0
			}
			batch[i] = shm.Message{Kind: 1, Size: 64, W: [7]uint64{id, uint64(c)}}
		}
		s.Schedule(at, func() {
			w.arrive(t, batch)
			w.note("send", batch[0].W[0])
		})
	}
	hog := func(name string) {
		plan := make([][2]time.Duration, 8)
		for i := range plan {
			plan[i] = [2]time.Duration{time.Duration(prog.Intn(40)) * time.Microsecond, time.Duration(1+prog.Intn(30)) * time.Microsecond}
		}
		w.hogs = append(w.hogs, k.Spawn(name, func(tk *Task) {
			for i, p := range plan {
				tk.Sleep(p[0])
				tk.Compute(p[1])
				// A hog's release hands its core to a queued consumer, whose
				// dispatch then fires one context switch later: that instant
				// tells a hand-off from a dispatch penalty.
				if c := w.task; c.dispatch.Armed() && c.dispatch.At() == tk.Now().Add(k.params.ContextSwitch) {
					w.handoffs[c.dispatch.At()] = true
				}
				w.note(name, uint64(i))
			}
		}))
	}
	hog("hog-a")
	switch {
	case stackless && viaLane:
		w.recvK = w.dispatch
		w.paidK = func() {
			w.popLane()
			w.dispatch()
		}
		w.task = k.SpawnStackless("consumer", w.recvK)
	case stackless:
		w.recvK = w.recv
		w.paidK = func() {
			m := w.q[w.head]
			w.q, w.head = sim.PopFront(w.q, w.head)
			w.note("apply", m.W[0])
			w.recv()
		}
		w.task = k.SpawnStackless("consumer", w.recvK)
	case viaLane:
		w.task = k.Spawn("consumer", func(tk *Task) {
			for {
				for w.laneHead == len(w.lane) {
					w.laneQ.Wait(tk.Proc())
				}
				tk.Compute(cost(w.lane[w.laneHead]))
				w.popLane()
			}
		})
	default:
		w.task = k.Spawn("consumer", func(tk *Task) {
			var buf []shm.Message
			for {
				buf = w.ring.RecvBatchInto(tk.Proc(), buf[:0], 3)
				for _, m := range buf {
					tk.Compute(cost(m))
					w.note("apply", m.W[0])
				}
			}
		})
	}
	hog("hog-b")
	return w
}

// recv is the stackless consumer's loop: what RecvBatchInto and the
// parked consumer's inner loop do, one continuation at a time.
func (w *consumerWorld) recv() {
	if w.head == len(w.q) {
		if w.q = w.ring.TryRecvBatchInto(w.q[:0], 3); len(w.q) == 0 {
			w.task.WaitThen(w.ring, w.recvK)
			return
		}
	}
	w.task.ComputeThen(cost(w.q[w.head]), w.paidK)
}

// dispatch is the stackless consumer's loop off the lane.
func (w *consumerWorld) dispatch() {
	if w.laneHead == len(w.lane) {
		w.task.ParkThen(w.recvK)
		return
	}
	w.task.ComputeThen(cost(w.lane[w.laneHead]), w.paidK)
}

// where classifies the consumer's state, for the coverage of the kills.
func (w *consumerWorld) where() string {
	c := w.task
	switch {
	case c.finished:
		return "finished"
	case !c.Computing():
		return "waiting"
	case c.core < 0:
		return "queued"
	case c.dispatch.Armed() && w.handoffs[c.dispatch.At()]:
		return "hand-off"
	case c.dispatch.Armed():
		return "penalty"
	case c.slice.preempted:
		return "preempted"
	default:
		return "slice"
	}
}

// run runs the program, killing the consumer (or panicking its kernel)
// at kill if it is not negative, and returns the log and where the kill
// landed.
func (w *consumerWorld) run(t testing.TB, kill time.Duration, panicKernel bool) ([]step, string) {
	landed := ""
	if kill >= 0 {
		w.s.Schedule(kill, func() {
			landed = w.where()
			if panicKernel {
				w.k.Panic("test", nil)
			} else {
				w.task.Kill()
			}
			w.note("kill", 0)
		})
	}
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	w.note("end", 0)
	return w.log, landed
}

// TestStacklessTaskMatchesTask runs seeded programs of arrivals and fixed
// costs on one and two contended cores, once with a parked consumer task
// (receive, Compute, apply) and once with a stackless one (WaitThen or
// ParkThen, ComputeThen, apply), off a ring and off a lane: the applies, the hogs' progress, the kernel's
// compute time and its idle and runnable counts after every step must be
// the same — the stackless task draws every sequence number and random
// number the process did. Kills land across the consumer's states: owing
// the dispatch penalty, mid-slice, preempted, queued for a core, at the
// hand-off and waiting for work; a kernel panic kills it too.
func TestStacklessTaskMatchesTask(t *testing.T) {
	hit := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		viaLane := seed%2 == 0
		for _, cores := range []int{1, 2} {
			none, _ := newConsumerWorld(t, seed, cores, viaLane, false).run(t, -1, false)
			end := none[len(none)-1].At.Duration()
			for _, panicKernel := range []bool{false, true} {
				for i, kill := 0, time.Duration(-1); kill < end; i, kill = i+1, kill+2300*time.Nanosecond {
					if panicKernel && i%4 != 1 {
						continue // a quarter of the points is plenty for a panic
					}
					want, wantAt := newConsumerWorld(t, seed, cores, viaLane, false).run(t, kill, panicKernel)
					got, gotAt := newConsumerWorld(t, seed, cores, viaLane, true).run(t, kill, panicKernel)
					if gotAt != wantAt {
						t.Fatalf("seed %d (lane %v), %d cores, kill at %v: the stackless consumer was %s, the task %s", seed, viaLane, cores, kill, gotAt, wantAt)
					}
					if panicKernel && kill >= 0 {
						gotAt = "panic while " + gotAt
					}
					hit[gotAt]++
					if !reflect.DeepEqual(got, want) {
						for i := range want {
							if i >= len(got) || got[i] != want[i] {
								t.Fatalf("seed %d (lane %v), %d cores, kill at %v (%s): step %d\n task:      %+v\n stackless: %+v", seed, viaLane, cores, kill, gotAt, i, want[i], at(got, i))
							}
						}
						t.Fatalf("seed %d (lane %v), %d cores, kill at %v (%s): the stackless run has %d steps, the task's %d", seed, viaLane, cores, kill, gotAt, len(got), len(want))
					}
				}
			}
		}
	}
	for _, where := range []string{"penalty", "slice", "preempted", "queued", "hand-off", "waiting", "panic while slice", "panic while queued", "panic while waiting"} {
		if hit[where] == 0 {
			t.Errorf("no kill landed on a consumer that was %s: %v", where, hit)
		}
	}
	t.Log(hit)
}

func at(log []step, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

// TestStacklessTaskAllocatesNothing: an arrival, the compute it costs, its
// apply and the wait for the next one make no allocation. The continuations
// are stored once, the task's resume is one re-armed event, and a wait on a
// ring installs that event as the ring's receiver.
func TestStacklessTaskAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(part, Config{Name: "k", Cores: 1, Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	ring := shm.NewFabric(s, time.Microsecond).NewRing("work", 0, 1<<12)
	var (
		w            *Task
		q            []shm.Message
		applied      uint64
		recvK, paidK func()
	)
	recvK = func() {
		if q = ring.TryRecvBatchInto(q[:0], 0); len(q) == 0 {
			w.WaitThen(ring, recvK)
			return
		}
		w.ComputeThen(10*time.Microsecond, paidK)
	}
	paidK = func() {
		applied += q[0].W[0]
		recvK()
	}
	w = k.SpawnStackless("worker", recvK)
	cycle := func() {
		if !ring.TrySend(shm.Message{Kind: 1, Size: 64, W: [7]uint64{1}}) {
			t.Fatal("ring refused a message")
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("arrival + compute + apply + wait allocates %.1f times per cycle, want 0", n)
	}
	if applied != 202 || k.IdleCores() != 1 || k.ComputeTime() != 202*10*time.Microsecond {
		t.Errorf("applied %d of 202, %d idle cores, %v computed", applied, k.IdleCores(), k.ComputeTime())
	}
}
