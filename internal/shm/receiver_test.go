package shm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// A receiver event against the parked receiver it replaces: each seeded
// program runs twice over the same producers, once drained by a process in
// a Recv / RecvBatchInto loop and once by a receiver event (OnReceive) that
// makes the same calls without blocking. Producers send batches of mixed
// sizes, a chaos hook duplicates and delays transfers, pauses of half the
// latency land deliveries on the same instant, and a witness process logs at
// instants of its own. Whoever runs appends to one merged log, so a receiver
// that runs at another point of the event order — or draws its sequence
// numbers at another point — reorders it. Two-thirds of the way through, a
// delivery to an idle receiver detaches it (killing the process, detaching
// the event) from a callback it schedules: that callback fires after the
// delivery woke the receiver, and before the receiver runs.

// receiverWorld is one run of a program.
type receiverWorld struct {
	s    *sim.Simulation
	r    *Ring
	log  []string
	rng  *rand.Rand // the producers' batch sizes, payload sizes and pauses
	pick *rand.Rand // the receiver's next receive call, drawn when it makes one

	// next is the receive call drawn and not yet made: 0 is Recv, k > 0 a
	// batch of at most k-1 (0 = all); -1 when none is pending. A parked
	// receiver draws one, then blocks; the event draws one, then finds the
	// ring empty — and keeps it for its next firing.
	next int
	buf  []Message

	ev       sim.Event
	proc     *sim.Proc
	detached bool

	armedAtDelivery int  // deliveries that found the receiver event armed
	armedAtDetach   bool // the detach found it armed, with a delivery it never drains
}

func (w *receiverWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v %s", w.s.Now(), fmt.Sprintf(format, args...)))
}

// handle is the receiver's work on a message, the same in both runs. Every
// third message schedules an echo: a draw made at the receiver's own program
// point, whose place in the order the merged log shows.
func (w *receiverWorld) handle(m Message) {
	w.logf("recv %d", m.W[0])
	if id := m.W[0]; id%3 == 0 {
		w.s.Schedule(0, func() { w.logf("echo %d", id) })
	}
}

func (w *receiverWorld) call() int {
	if w.next < 0 {
		w.next = w.pick.Intn(5)
	}
	return w.next
}

// parked is the receiver process.
func (w *receiverWorld) parked(p *sim.Proc) {
	for {
		if k := w.call(); k == 0 {
			m := w.r.Recv(p)
			w.next = -1
			w.handle(m)
		} else {
			w.buf = w.r.RecvBatchInto(p, w.buf[:0], k-1)
			w.next = -1
			for _, m := range w.buf {
				w.handle(m)
			}
		}
	}
}

// drain is the receiver event's callback.
func (w *receiverWorld) drain() {
	for {
		if k := w.call(); k == 0 {
			m, ok := w.r.TryRecv()
			if !ok {
				return
			}
			w.next = -1
			w.handle(m)
		} else {
			if w.buf = w.r.TryRecvBatchInto(w.buf[:0], k-1); len(w.buf) == 0 {
				return
			}
			w.next = -1
			for _, m := range w.buf {
				w.handle(m)
			}
		}
	}
}

func (w *receiverWorld) detach(event bool) {
	w.logf("detach")
	if event {
		w.armedAtDetach = w.ev.Armed()
		w.r.OnReceive(nil)
	} else {
		w.proc.Kill()
	}
}

func runReceiverProgram(seed int64, event bool, sends int) *receiverWorld {
	const latency = 2 * time.Microsecond
	s := sim.New(seed)
	w := &receiverWorld{s: s, r: NewFabric(s, latency).NewRing("rx", 0, 1536),
		rng: rand.New(rand.NewSource(seed)), pick: rand.New(rand.NewSource(seed ^ 0x7ec)), next: -1}
	chaos := rand.New(rand.NewSource(seed ^ 0x5eed))
	w.r.SetChaosHook(func([]Message) ChaosVerdict {
		var v ChaosVerdict
		switch c := chaos.Intn(100); {
		case c < 10:
			v.Dup = 1 + chaos.Intn(2)
		case c < 20:
			v.Delay = time.Duration(chaos.Intn(int(2 * latency)))
		}
		return v
	})
	const producers = 3
	total := int64(0)
	w.r.OnDelivered(func() {
		// Runs before the delivery wakes the receiver: an idle one is
		// parked, or its event unarmed.
		idle := event && !w.ev.Armed() || !event && w.r.recvQ.Len() > 0
		if event && !idle {
			w.armedAtDelivery++
		}
		if !w.detached && idle && 3*w.r.Delivered() >= 2*total {
			w.detached = true
			w.s.Schedule(0, func() { w.detach(event) })
		}
	})
	if event {
		w.ev.Init(s.Root(), w.drain)
		w.r.OnReceive(&w.ev)
	} else {
		w.proc = s.Spawn("receiver", w.parked)
	}
	id := uint64(0)
	for i := 0; i < producers; i++ {
		s.Spawn(fmt.Sprintf("producer.%d", i), func(p *sim.Proc) {
			for n := 0; n < sends; n++ {
				p.Sleep(time.Duration(w.rng.Intn(3)) * latency / 2)
				msgs := make([]Message, 1+w.rng.Intn(4))
				for j := range msgs {
					id++
					msgs[j] = Message{Kind: 1, Size: w.rng.Intn(120), W: [7]uint64{id}}
				}
				w.logf("p%d send %d+%d", i, msgs[0].W[0], len(msgs))
				w.r.SendBatch(p, msgs)
			}
		})
	}
	// Every batch is 2.5 messages on average; dup copies deliver as well.
	total = int64(producers * sends * 5 / 2)
	s.Spawn("witness", func(p *sim.Proc) {
		for {
			p.Sleep(latency / 2)
			w.logf("witness")
		}
	})
	if err := s.RunUntil(sim.Time(int64(sends) * int64(3*latency))); err != nil {
		panic(err)
	}
	return w
}

func TestReceiverEventMatchesParkedReceiver(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			parked, event := runReceiverProgram(seed, false, 400), runReceiverProgram(seed, true, 400)
			defer parked.s.Shutdown()
			defer event.s.Shutdown()
			for i := 0; i < len(parked.log) && i < len(event.log); i++ {
				if parked.log[i] != event.log[i] {
					t.Fatalf("merged logs part at line %d:\n parked %q\n event  %q\nbefore that:\n%s",
						i, parked.log[i], event.log[i], strings.Join(parked.log[max(0, i-8):i], "\n"))
				}
			}
			if len(parked.log) != len(event.log) {
				t.Fatalf("merged logs of %d and %d lines", len(parked.log), len(event.log))
			}
			if p, e := parked.s.Pending(), event.s.Pending(); p != e {
				t.Errorf("Pending() = %d parked, %d event", p, e)
			}
			pr, er := parked.r, event.r
			if pr.Stats() != er.Stats() || pr.Len() != er.Len() || pr.Delivered() != er.Delivered() {
				t.Errorf("ring parked %+v len=%d delivered=%d, event %+v len=%d delivered=%d",
					pr.Stats(), pr.Len(), pr.Delivered(), er.Stats(), er.Len(), er.Delivered())
			}
			if !event.armedAtDetach || er.Len() == 0 || event.armedAtDelivery == 0 || er.Stats().Batches == 0 {
				t.Errorf("program exercised too little: armed at the detach %v, %d left in the ring, %d deliveries found the event armed, %+v",
					event.armedAtDetach, er.Len(), event.armedAtDelivery, er.Stats())
			}
			t.Logf("%d log lines, %d deliveries found the event armed, %+v", len(event.log), event.armedAtDelivery, er.Stats())
		})
	}
}

// TestReceiverEventWithParkedReceiverPanics: a ring has one receiver, so a
// delivery that would arm a receiver event while a process is parked in
// Recv panics instead of leaving one of them waiting for ever.
func TestReceiverEventWithParkedReceiverPanics(t *testing.T) {
	s := sim.New(1)
	defer s.Shutdown()
	r := NewFabric(s, time.Microsecond).NewRing("rx", 0, 1024)
	var ev sim.Event
	ev.Init(s.Root(), func() {})
	r.OnReceive(&ev)
	s.Spawn("receiver", func(p *sim.Proc) { r.Recv(p) })
	s.Spawn("sender", func(p *sim.Proc) { r.Send(p, Message{Kind: 1, Size: 8}) })
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "parked receiver") {
			t.Errorf("recovered %v; want the one-receiver panic", v)
		}
	}()
	s.Run()
}
