package shm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// outboxWorld is one outbox over a small ring, with the owner's side played
// by the test: sent counts what the outbox says it published.
type outboxWorld struct {
	s        *sim.Simulation
	dom      *sim.Group // the sending kernel's domain
	r        *Ring
	g        Outboxes
	o        Outbox
	transfer int    // sent callbacks
	entries  int    // entries they reported
	updates  uint64 // logical updates they reported
}

const testInterval = 50 * time.Microsecond

func newOutboxWorld(capBytes int64) *outboxWorld {
	w := &outboxWorld{s: sim.New(1)}
	w.dom = w.s.NewGroup("kernel")
	w.r = newRing(w.s, capBytes)
	w.g.Init(w.dom, testInterval)
	w.g.Attach(&w.o, w.r, w.o.TryFlush, func(n int, u uint64) {
		w.transfer++
		w.entries += n
		w.updates += u
	})
	w.dom.Spawn("spill", w.g.Serve)
	return w
}

func (w *outboxWorld) run(t *testing.T, until sim.Time) {
	t.Helper()
	if err := w.s.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

// add buffers n entries of size bytes each, numbered from first in W[0].
func (w *outboxWorld) add(first, n, size int) {
	for i := first; i < first+n; i++ {
		w.o.Add(Message{Kind: 1, Size: size, W: [7]uint64{uint64(i)}})
	}
}

// TestOutboxDeadlinePublishesOnce: a partial buffer is published exactly
// one interval after its first entry — not a nanosecond sooner, not twice —
// by an event: no process is switched in. A forced flush in the deadline's
// own instant, on either side of it or of its hop, still makes one transfer.
func TestOutboxDeadlinePublishesOnce(t *testing.T) {
	w := newOutboxWorld(64 << 10)
	defer w.s.Shutdown()
	w.run(t, 0) // the spill server parks
	w.add(0, 3, 64)
	w.run(t, sim.Time(testInterval)-1)
	if st := w.r.Stats(); st.Messages != 0 || w.transfer != 0 {
		t.Fatalf("%d transfers, %d booked before the deadline, want the batch still buffered", st.Messages, w.transfer)
	}
	switched := 0
	w.s.OnSwitch = func(sim.Time, string) { switched++ }
	w.run(t, sim.Time(testInterval))
	w.s.OnSwitch = nil
	if st := w.r.Stats(); st.Messages != 1 || st.Payloads != 3 || w.transfer != 1 || w.entries != 3 || w.updates != 3 {
		t.Fatalf("at the deadline: %d transfers / %d payloads, booked %d / %d / %d updates; want 1 / 3 and 1 / 3 / 3",
			st.Messages, st.Payloads, w.transfer, w.entries, w.updates)
	}
	if switched != 0 {
		t.Errorf("the deadline switched %d processes in, want 0 (it is an event)", switched)
	}
	w.run(t, sim.Time(time.Millisecond))
	if st := w.r.Stats(); st.Messages != 1 || w.transfer != 1 {
		t.Errorf("after a quiet millisecond: %d transfers, %d booked; want 1 each", st.Messages, w.transfer)
	}

	// What the hop is for: an entry added in the deadline's own instant,
	// behind the expiry, still rides the batch.
	before, start := w.r.Stats(), w.s.Now()
	w.add(3, 2, 64)
	w.s.Schedule(testInterval, func() { w.add(5, 1, 64) })
	w.run(t, start.Add(testInterval))
	if st := w.r.Stats(); st.Messages != before.Messages+1 || st.Payloads != before.Payloads+3 {
		t.Errorf("entry added in the deadline's instant: %d transfers / %d payloads, want 1 / 3",
			st.Messages-before.Messages, st.Payloads-before.Payloads)
	}

	// A flush already queued for the deadline's instant runs before the
	// deadline expires; one scheduled from that instant lands between the
	// expiry and its hop, or behind the hop.
	for hops := 0; hops <= 3; hops++ {
		before, start := w.r.Stats().Messages, w.s.Now()
		flush := w.o.TryFlush
		for i := 0; i < hops; i++ {
			next := flush
			flush = func() { w.s.Schedule(0, next) }
		}
		if hops == 0 {
			w.s.Schedule(testInterval, flush)
		}
		w.add(10*hops, 2, 64)
		if hops > 0 {
			w.s.Schedule(testInterval, flush)
		}
		w.run(t, start.Add(time.Millisecond))
		if got := w.r.Stats().Messages; got != before+1 || w.transfer != int(got) {
			t.Errorf("flush %d hops behind the deadline's instant: %d transfers, %d booked; want %d each (one flush, not two)",
				hops, got, w.transfer, before+1)
		}
	}
}

// TestOutboxDeadlineAfterDeathIsNoOp: an outbox killed with a deadline
// armed publishes nothing when the interval runs out — whatever state the
// event is in when its handler runs — and a dead kernel's deadline never
// runs at all.
func TestOutboxDeadlineAfterDeathIsNoOp(t *testing.T) {
	for _, death := range []struct {
		name string
		fn   func(w *outboxWorld)
	}{
		{"Kill", func(w *outboxWorld) { w.o.Kill() }},
		{"kernel death", func(w *outboxWorld) { w.dom.Kill() }},
	} {
		w := newOutboxWorld(64 << 10)
		w.add(0, 3, 64)
		w.s.Schedule(10*time.Microsecond, func() { death.fn(w) })
		w.run(t, sim.Time(time.Millisecond))
		if w.o.deadline.Armed() {
			t.Errorf("%s: the deadline is still armed after the death", death.name)
		}
		if !w.dom.Killed() {
			w.o.expired() // expiry
			w.o.expired() // and its hop
		}
		if st := w.r.Stats(); st.Messages != 0 || w.transfer != 0 {
			t.Errorf("%s: %d transfers, %d booked after the death; want none", death.name, st.Messages, w.transfer)
		}
		w.s.Shutdown()
	}
}

// spillWorld is a 2 KiB ring holding three transfers of 8 x 64 bytes: 320
// bytes are left, which a fourth batch of five does not fit.
func spillWorld(t *testing.T) *outboxWorld {
	w := newOutboxWorld(2 << 10)
	for b := 0; b < 3; b++ {
		w.add(8*b, 8, 64)
		w.o.TryFlush()
	}
	w.add(24, 5, 64)
	w.run(t, sim.Time(testInterval+10*time.Microsecond))
	if w.g.spillQ.Len() != 0 || w.r.Stats().ReserveWaits != 1 || w.transfer != 3 {
		t.Fatalf("after the deadline: spill server parked at home = %v, %d reservations waiting, %d transfers booked; want it blocked on the ring behind 3",
			w.g.spillQ.Len() != 0, w.r.Stats().ReserveWaits, w.transfer)
	}
	return w
}

// TestOutboxSpilledBatchKeepsItsPlace: a buffer whose deadline finds the
// ring full goes to the spill server, which claims its FIFO ticket; entries
// added while it waits queue behind it — a TryFlush cannot jump the ticket —
// and the consumer sees one gapless sequence.
func TestOutboxSpilledBatchKeepsItsPlace(t *testing.T) {
	w := spillWorld(t)
	defer w.s.Shutdown()
	w.add(29, 2, 64)
	w.o.TryFlush() // refused: a ticket waits ahead
	if w.o.Len() != 2 || w.transfer != 3 {
		t.Fatalf("a flush behind a waiting ticket left %d buffered, %d booked; want 2 and 3", w.o.Len(), w.transfer)
	}
	var got []uint64
	w.s.Spawn("drain", func(p *sim.Proc) {
		for len(got) < 31 {
			got = append(got, w.r.Recv(p).W[0])
		}
	})
	w.run(t, sim.Time(time.Second))
	if len(got) != 31 {
		t.Fatalf("consumer saw %d entries, want 31", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("entry %d arrived in position %d: %v", id, i, got)
		}
	}
	if w.g.spillQ.Len() != 1 || w.entries != 31 {
		t.Errorf("spill server parked at home = %v, %d entries booked; want true and 31", w.g.spillQ.Len() == 1, w.entries)
	}
}

// TestOutboxKillWhileParked: the outbox is killed while the spill server is
// parked on its full ring. The kill's drain admits the parked ticket; the
// server gives the span back unpublished and goes home — nothing reaches
// the dead ring and nothing is booked.
func TestOutboxKillWhileParked(t *testing.T) {
	w := spillWorld(t)
	defer w.s.Shutdown()
	st := w.r.Stats()
	w.o.Kill()
	if err := w.s.Run(); err != nil { // to an empty queue: a process still blocked would show below
		t.Fatal(err)
	}
	if w.g.spillQ.Len() != 1 || w.r.OpenSpans() != 0 {
		t.Errorf("spill server parked at home = %v, %d spans open; want true and none", w.g.spillQ.Len() == 1, w.r.OpenSpans())
	}
	if got := w.r.Stats(); got.Messages != st.Messages || got.Payloads != st.Payloads || w.transfer != 3 {
		t.Errorf("after the kill: %d transfers / %d payloads on the ring, %d booked; want %d / %d and 3 (what they were)",
			got.Messages, got.Payloads, w.transfer, st.Messages, st.Payloads)
	}
}

// The outbox against a reference model, in the manner of
// TestRingMatchesReferenceModel: seeded programs of adds, merges into the
// tail, forced flushes, blocking flushes from spawned processes, deadlines
// running out, a receiver draining, and kills — over two outboxes sharing a
// spill server, each on a ring small enough to fill. The model is a slice
// per outbox of every entry added, merges folded in; the receiver, the sent
// callback and the outbox's own counts are checked against it. Bookings are
// checked as totals: the ring publishes in claim order, but a flush that
// claimed later can be booked first — its span committed and waiting behind
// one whose sender has been admitted and not yet run.

type refEntry struct {
	id, mark, updates uint64
	size              int
}

// refBox is one outbox's incarnation: killed ones are replaced, like a
// backup that rejoins.
type refBox struct {
	o    Outbox
	r    *Ring
	all  []refEntry // every entry added, in order
	recv int        // all[:recv] have reached the receiver
	// What the sent callback has booked, beside the model's count of the
	// logical updates in all[:taken].
	sentEntries          int
	sentUpdates, updates uint64
	taken                int
	// since is when the buffer last went from empty to non-empty.
	since sim.Time
	// At the kill: the ring's transfer count, which must not move again.
	killedAt int64
}

type outboxModelWorld struct {
	t     *testing.T
	s     *sim.Simulation
	f     *Fabric
	g     Outboxes
	rng   *rand.Rand
	boxes [2]*refBox
	dead  []*refBox
	step  int
	next  uint64

	// failed is the first disagreement seen from a callback: those run on
	// whichever process is blocked, where t.Fatal must not be called.
	failed string

	flushers            int // spawned blocking flushes still running
	refused, concurrent int
	killsParked         int
}

const (
	modelCap      = 1536
	modelInterval = 6 * time.Microsecond
)

func (w *outboxModelWorld) attach(slot int) {
	b := &refBox{r: w.f.NewRing(fmt.Sprintf("model-%d", slot), 0, modelCap)}
	w.g.Attach(&b.o, b.r, b.o.TryFlush, func(n int, u uint64) {
		b.sentEntries += n
		b.sentUpdates += u
		if b.o.Dead() && w.failed == "" {
			w.failed = fmt.Sprintf("a flush of %d entries booked on a killed outbox", n)
		}
	})
	w.boxes[slot] = b
}

func queued(r *Ring) int { return len(r.resQ) - r.resHead }

// receive takes up to max delivered entries (all when max <= 0) and checks
// each against the model: in order, none missing, none twice, merges intact.
func (w *outboxModelWorld) receive(b *refBox, max int) {
	for n := 0; max <= 0 || n < max; n++ {
		m, ok := b.r.TryRecv()
		if !ok {
			return
		}
		if b.recv >= b.sentEntries {
			w.t.Fatalf("step %d: received entry %d, with %d booked", w.step, m.W[0], b.sentEntries)
		}
		if e := b.all[b.recv]; m.W[0] != e.id || m.W[1] != e.mark || m.Size != e.size {
			w.t.Fatalf("step %d: received id %d mark %d size %d, model %+v", w.step, m.W[0], m.W[1], m.Size, e)
		}
		b.recv++
	}
}

func (w *outboxModelWorld) do() {
	slot := w.rng.Intn(2)
	b := w.boxes[slot]
	o, rng := &b.o, w.rng
	switch op := rng.Intn(100); {
	case op < 36:
		size := 40 + rng.Intn(120)
		if headerBytes+o.Bytes()+int64(size) > modelCap {
			return // the owner's back-pressure: a buffer never outgrows its ring
		}
		if o.Len() == 0 {
			b.since = w.s.Now()
		}
		w.next++
		o.Add(Message{Kind: 1, Size: size, W: [7]uint64{w.next}})
		b.all = append(b.all, refEntry{id: w.next, updates: 1, size: size})
	case op < 48:
		tail := o.Tail()
		if (tail == nil) != (o.Len() == 0) {
			w.t.Fatalf("step %d: Tail nil = %v with %d buffered", w.step, tail == nil, o.Len())
		}
		grew := rng.Intn(60)
		if tail == nil || headerBytes+o.Bytes()+int64(grew) > modelCap {
			return
		}
		last := &b.all[len(b.all)-1]
		if tail.W[0] != last.id {
			w.t.Fatalf("step %d: Tail is entry %d, model's newest is %d", w.step, tail.W[0], last.id)
		}
		tail.W[1]++
		o.Merged(grew)
		last.mark, last.updates, last.size = last.mark+1, last.updates+1, last.size+grew
	case op < 58:
		had, sent := o.Len(), b.sentEntries
		o.TryFlush()
		if had > 0 && b.sentEntries == sent {
			w.refused++
			if o.Len() != had {
				w.t.Fatalf("step %d: a refused flush left %d of %d buffered", w.step, o.Len(), had)
			}
		}
	case op < 70:
		w.flushers++
		w.s.Spawn("flusher", func(p *sim.Proc) {
			if o.Len() > 0 && !o.Dead() && queued(b.r) > 0 {
				w.concurrent++
			}
			o.Flush(p)
			w.flushers--
		})
	case op < 86:
		w.receive(b, 1+rng.Intn(5))
	case op < 87 || (op < 92 && queued(b.r) > 0):
		if queued(b.r) > 0 {
			w.killsParked++
		}
		w.receive(b, 0) // the kill's drain discards what was delivered
		o.Kill()
		b.killedAt = b.r.Stats().Messages
		w.dead = append(w.dead, b)
		w.attach(slot)
	}
}

// check runs at a quiescent instant: the outbox's counts against the
// model's, and the deadline's promise — nothing sits buffered past one
// interval unless a sender is parked on a ring.
func (w *outboxModelWorld) check() {
	if w.failed != "" {
		w.t.Fatalf("step %d: %s", w.step, w.failed)
	}
	parked := 0
	for _, b := range w.boxes {
		parked += queued(b.r)
	}
	for _, b := range w.boxes {
		n := b.o.Len()
		var bytes int64
		for _, e := range b.all[len(b.all)-n:] {
			bytes += int64(e.size)
		}
		if b.o.Bytes() != bytes {
			w.t.Fatalf("step %d: %d entries buffered in %d bytes, model %d", w.step, n, b.o.Bytes(), bytes)
		}
		// Merges touch buffered entries only, so the sum over those taken
		// never changes; with no sender parked everything taken is booked.
		for ; b.taken < len(b.all)-n; b.taken++ {
			b.updates += b.all[b.taken].updates
		}
		if queued(b.r) == 0 && (b.sentEntries != b.taken || b.sentUpdates != b.updates) {
			w.t.Fatalf("step %d: %d entries / %d updates booked, model %d / %d", w.step, b.sentEntries, b.sentUpdates, b.taken, b.updates)
		}
		if age := w.s.Now().Sub(b.since); n > 0 && parked == 0 && age > modelInterval {
			w.t.Fatalf("step %d: %d entries buffered for %v with room on the rings (interval %v)", w.step, n, age, modelInterval)
		}
	}
}

func runOutboxProgram(t *testing.T, seed int64, steps int) (refused, concurrent, killsParked int) {
	s := sim.New(seed)
	defer s.Shutdown()
	w := &outboxModelWorld{t: t, s: s, f: NewFabric(s, time.Microsecond), rng: rand.New(rand.NewSource(seed))}
	w.g.Init(s.Root(), modelInterval)
	w.attach(0)
	w.attach(1)
	s.Spawn("spill", w.g.Serve)
	for w.step = 0; w.step < steps; w.step++ {
		w.do()
		if err := s.RunFor(time.Duration(w.rng.Intn(int(3 * time.Microsecond)))); err != nil {
			t.Fatal(err)
		}
		w.check()
	}
	// Wind down: everything still buffered goes out, everything published
	// arrives, and every process that parked comes back.
	for round := 0; round < 100; round++ {
		for _, b := range w.boxes {
			w.receive(b, 0)
		}
		if err := s.RunFor(modelInterval); err != nil {
			t.Fatal(err)
		}
		w.check()
	}
	for i, b := range w.boxes {
		if b.recv != len(b.all) || b.sentEntries != len(b.all) {
			t.Errorf("outbox %d: %d entries added, %d booked, %d received after the wind-down", i, len(b.all), b.sentEntries, b.recv)
		}
	}
	for _, b := range w.dead {
		w.receive(b, 0)
		if b.recv != b.sentEntries {
			t.Errorf("killed outbox: %d entries booked, %d received", b.sentEntries, b.recv)
		}
		if got := b.r.Stats().Messages; got != b.killedAt {
			t.Errorf("killed outbox: %d transfers on its ring, %d at the kill", got, b.killedAt)
		}
	}
	if w.flushers != 0 || w.g.spillQ.Len() != 1 {
		t.Errorf("%d flushers still parked, spill server parked at home = %v; want none and true", w.flushers, w.g.spillQ.Len() == 1)
	}
	return w.refused, w.concurrent, w.killsParked
}

func TestOutboxMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			refused, concurrent, killsParked := runOutboxProgram(t, seed, 30000)
			if refused < 20 || concurrent < 20 || killsParked < 20 {
				t.Errorf("program exercised too little: %d refused flushes, %d flushes blocked behind another, %d kills while a sender was parked; want 20 of each",
					refused, concurrent, killsParked)
			}
			t.Logf("%d refused flushes, %d flushes blocked behind another, %d kills while parked", refused, concurrent, killsParked)
		})
	}
}
