package shm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// The ring against a reference model, in the manner of the sim package's
// TestEngineMatchesReferenceQueue: seeded programs of reservations, puts,
// commits, aborts, sends, receives, drains and coherency faults, with a
// chaos hook ruling Drop / Dup / Delay on every transfer, run on the Ring
// and on refRing — slices and linear scans, no record reuse, no handles,
// no head indices. After every step the two must agree on everything a
// caller can observe.

// refSpan is the model's reservation. It is never reused: done marks it
// settled, dropped or published.
type refSpan struct {
	capMsgs             int
	budget, used, bytes int64
	msgs                []Message
	committed, done     bool
}

func (sp *refSpan) open() bool { return !sp.committed && !sp.done }

type refTicket struct {
	n     int
	bytes int64
	start sim.Time
	then  func(*refSpan)
}

type refTransfer struct {
	msgs   []Message
	bytes  int64
	doomed bool
	at     sim.Time
}

type refSlot struct {
	msg   Message
	bytes int64
}

type refRing struct {
	capBytes, used int64
	latency        time.Duration
	now, last      sim.Time
	spans          []*refSpan
	tickets        []*refTicket
	inflight       []*refTransfer
	buf            []refSlot
	delivered      int64
	stats          Stats
	runnable       []func()       // woken or freshly spawned senders, in wake order
	verdicts       []ChaosVerdict // what the ring's hook ruled, in publish order
	nextVerdict    int
}

func (m *refRing) admit(n int, bytes int64) *refSpan {
	sp := &refSpan{capMsgs: n, budget: bytes, bytes: headerBytes + bytes}
	m.used += sp.bytes
	if m.used > m.stats.HighWaterBytes {
		m.stats.HighWaterBytes = m.used
	}
	m.spans = append(m.spans, sp)
	return sp
}

func (m *refRing) tryReserve(n int, bytes int64) *refSpan {
	if len(m.tickets) > 0 || headerBytes+bytes > m.capBytes-m.used {
		return nil
	}
	return m.admit(n, bytes)
}

// reserve is a blocking claim by a sender that has just started running;
// then runs once the span is admitted, when the sender next runs.
func (m *refRing) reserve(n int, bytes int64, then func(*refSpan)) {
	if sp := m.tryReserve(n, bytes); sp != nil {
		then(sp)
		return
	}
	m.tickets = append(m.tickets, &refTicket{n: n, bytes: bytes, start: m.now, then: then})
	m.stats.ReserveWaits++
}

func (m *refRing) admitWaiters() {
	for len(m.tickets) > 0 && headerBytes+m.tickets[0].bytes <= m.capBytes-m.used {
		tk := m.tickets[0]
		m.tickets = m.tickets[1:]
		sp := m.admit(tk.n, tk.bytes)
		m.runnable = append(m.runnable, func() {
			m.stats.SendWaitNs += int64(m.now.Sub(tk.start))
			tk.then(sp)
		})
	}
}

func (m *refRing) put(sp *refSpan, msg Message) bool {
	if len(sp.msgs) >= sp.capMsgs || sp.used+int64(msg.Size) > sp.budget {
		return false
	}
	sp.msgs = append(sp.msgs, msg)
	sp.used += int64(msg.Size)
	return true
}

func (m *refRing) unlist(sp *refSpan) {
	for i, x := range m.spans {
		if x == sp {
			m.spans = append(m.spans[:i:i], m.spans[i+1:]...)
			return
		}
	}
}

func (m *refRing) abort(sp *refSpan) {
	if !sp.open() {
		return
	}
	sp.done = true
	m.unlist(sp)
	m.used -= sp.bytes
	m.admitWaiters()
	m.publishReady()
}

func (m *refRing) commit(sp *refSpan) {
	if !sp.open() {
		return
	}
	if len(sp.msgs) == 0 {
		m.abort(sp)
		return
	}
	sp.committed = true
	if actual := headerBytes + sp.used; actual < sp.bytes {
		m.used -= sp.bytes - actual
		sp.bytes = actual
		m.admitWaiters()
	}
	m.publishReady()
}

func (m *refRing) publishReady() {
	for len(m.spans) > 0 && m.spans[0].committed {
		sp := m.spans[0]
		m.spans = m.spans[1:]
		sp.done = true
		if m.nextVerdict == len(m.verdicts) {
			panic("model publishes a span the ring has not published")
		}
		v := m.verdicts[m.nextVerdict]
		m.nextVerdict++
		copies := 1
		if !v.Drop {
			copies += v.Dup
		}
		for c := 0; c < copies; c++ {
			tr := &refTransfer{bytes: sp.bytes, doomed: v.Drop}
			tr.msgs = append(tr.msgs, sp.msgs...)
			if c > 0 {
				m.used += tr.bytes
				if m.used > m.stats.HighWaterBytes {
					m.stats.HighWaterBytes = m.used
				}
			}
			m.stats.Messages++
			m.stats.Payloads += int64(len(tr.msgs))
			if len(tr.msgs) > 1 {
				m.stats.Batches++
			}
			m.stats.Bytes += tr.bytes
			tr.at = m.now.Add(m.latency + v.Delay)
			if tr.at < m.last {
				tr.at = m.last
			}
			m.last = tr.at
			m.inflight = append(m.inflight, tr)
		}
	}
}

func (m *refRing) arrive(tr *refTransfer) {
	if tr.doomed {
		m.used -= tr.bytes
		m.stats.Dropped += int64(len(tr.msgs))
		m.admitWaiters()
		return
	}
	for i, msg := range tr.msgs {
		b := int64(msg.Size)
		if i == 0 {
			b += headerBytes
		}
		m.buf = append(m.buf, refSlot{msg, b})
	}
	m.delivered += int64(len(tr.msgs))
}

func (m *refRing) pop() Message {
	s := m.buf[0]
	m.buf = m.buf[1:]
	m.used -= s.bytes
	m.admitWaiters()
	return s.msg
}

func (m *refRing) drain() []Message {
	var out []Message
	for _, s := range m.buf {
		out = append(out, s.msg)
		m.used -= s.bytes
	}
	m.buf = nil
	for _, sp := range append([]*refSpan(nil), m.spans...) {
		m.abort(sp)
	}
	m.admitWaiters()
	return out
}

func (m *refRing) dropInflight() int {
	lost := 0
	for _, tr := range m.inflight {
		m.used -= tr.bytes
		lost += len(tr.msgs)
	}
	m.inflight = nil
	for _, sp := range m.spans {
		sp.done = true
		m.used -= sp.bytes
		lost += len(sp.msgs)
	}
	m.spans = nil
	m.stats.Dropped += int64(lost)
	m.admitWaiters()
	return lost
}

// settle runs every sender that is runnable at this instant, and whoever
// they wake in turn.
func (m *refRing) settle() {
	for len(m.runnable) > 0 {
		fn := m.runnable[0]
		m.runnable = m.runnable[1:]
		fn()
	}
}

// advance moves the clock to until: senders made runnable by the last step
// run first, then transfers arrive in order, the senders an arrival wakes
// running at its instant behind every transfer that arrives at it.
func (m *refRing) advance(until sim.Time) {
	m.settle()
	for len(m.inflight) > 0 && m.inflight[0].at <= until {
		m.now = m.inflight[0].at
		for len(m.inflight) > 0 && m.inflight[0].at == m.now {
			tr := m.inflight[0]
			m.inflight = m.inflight[1:]
			m.arrive(tr)
		}
		m.settle()
	}
	m.now = until
}

// ringWorld runs one seeded program on a Ring and on its model.
type ringWorld struct {
	t   *testing.T
	s   *sim.Simulation
	f   *Fabric
	r   *Ring
	m   *refRing
	rng *rand.Rand

	// Handles the program holds, open or long closed, with the model's
	// span beside each: a closed handle stays around while its record
	// serves other reservations.
	handles []Span
	spans   []*refSpan
	nextMsg uint64
	step    int
}

func (w *ringWorld) msg() Message {
	w.nextMsg++
	return Message{Kind: 1 + w.rng.Intn(3), Size: w.rng.Intn(160), W: [7]uint64{w.nextMsg}}
}

func (w *ringWorld) hold(sp Span, ref *refSpan) {
	w.handles = append(w.handles, sp)
	w.spans = append(w.spans, ref)
}

func (w *ringWorld) sameMsgs(what string, got, want []Message) {
	w.t.Helper()
	if len(got) != len(want) {
		w.t.Fatalf("step %d: %s returned %d messages, model %d", w.step, what, len(got), len(want))
	}
	for i := range got {
		if g, m := got[i], want[i]; g.W != m.W || g.Size != m.Size || g.Kind != m.Kind {
			w.t.Fatalf("step %d: %s message %d = %+v, model %+v", w.step, what, i, g, m)
		}
	}
}

func (w *ringWorld) compare(what string) {
	w.t.Helper()
	r, m := w.r, w.m
	got := fmt.Sprintf("%+v free=%d open=%d delivered=%d len=%d inflight=%d", r.Stats(), r.Free(), r.OpenSpans(), r.Delivered(), r.Len(), r.InFlight())
	want := fmt.Sprintf("%+v free=%d open=%d delivered=%d len=%d inflight=%d", m.stats, m.capBytes-m.used, len(m.spans), m.delivered, len(m.buf), len(m.inflight))
	if got != want {
		w.t.Fatalf("step %d after %s:\n ring  %s\n model %s", w.step, what, got, want)
	}
	for i, sp := range w.handles {
		ref := w.spans[i]
		n := 0
		if ref.open() {
			n = len(ref.msgs)
		}
		if sp.Open() != ref.open() || sp.Len() != n {
			w.t.Fatalf("step %d after %s: handle %d open=%v len=%d, model open=%v len=%d",
				w.step, what, i, sp.Open(), sp.Len(), ref.open(), n)
		}
	}
}

func (w *ringWorld) putPanics(sp Span) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	sp.Put(Message{})
	return false
}

func (w *ringWorld) do() string {
	r, m, rng := w.r, w.m, w.rng
	switch op := rng.Intn(100); {
	case op < 14:
		n, bytes := 1+rng.Intn(5), int64(rng.Intn(500))
		sp, ref := r.TryReserve(n, bytes), m.tryReserve(n, bytes)
		if sp.Open() != (ref != nil) {
			w.t.Fatalf("step %d: TryReserve(%d, %d) open=%v, model %v", w.step, n, bytes, sp.Open(), ref != nil)
		}
		if ref != nil {
			w.hold(sp, ref)
		}
		return "TryReserve"
	case op < 22:
		n, bytes := 1+rng.Intn(5), int64(rng.Intn(500))
		w.s.Spawn("reserver", func(p *sim.Proc) {
			sp := r.Reserve(p, n, bytes)
			w.handles = append(w.handles, sp)
		})
		m.runnable = append(m.runnable, func() {
			m.reserve(n, bytes, func(ref *refSpan) { w.spans = append(w.spans, ref) })
		})
		return "Reserve"
	case op < 50 && len(w.handles) > 0:
		i := rng.Intn(len(w.handles))
		sp, ref := w.handles[i], w.spans[i]
		switch rng.Intn(4) {
		case 0:
			sp.Commit()
			m.commit(ref)
			return "Commit"
		case 1:
			if rng.Intn(3) == 0 {
				sp.Abort()
				m.abort(ref)
			}
			return "Abort"
		default:
			if !ref.open() {
				if !w.putPanics(sp) {
					w.t.Fatalf("step %d: Put on closed handle %d did not panic", w.step, i)
				}
				return "Put(closed)"
			}
			msg := w.msg()
			if got, want := sp.Put(msg), m.put(ref, msg); got != want {
				w.t.Fatalf("step %d: Put = %v, model %v", w.step, got, want)
			}
			return "Put"
		}
	case op < 58:
		msgs := make([]Message, 1+rng.Intn(4))
		for i := range msgs {
			msgs[i] = w.msg()
		}
		if len(msgs) == 1 {
			w.s.Spawn("sender", func(p *sim.Proc) { r.Send(p, msgs[0]) })
		} else {
			w.s.Spawn("sender", func(p *sim.Proc) { r.SendBatch(p, msgs) })
		}
		m.runnable = append(m.runnable, func() {
			m.reserve(len(msgs), payloadBytes(msgs), func(ref *refSpan) {
				for _, msg := range msgs {
					m.put(ref, msg)
				}
				m.commit(ref)
			})
		})
		return "Send"
	case op < 66:
		msgs := make([]Message, 1+rng.Intn(4))
		for i := range msgs {
			msgs[i] = w.msg()
		}
		var got bool
		if len(msgs) == 1 {
			got = r.TrySend(msgs[0])
		} else {
			got = r.TrySendBatch(msgs)
		}
		ref := m.tryReserve(len(msgs), payloadBytes(msgs))
		if got != (ref != nil) {
			w.t.Fatalf("step %d: TrySend = %v, model %v", w.step, got, ref != nil)
		}
		if ref != nil {
			for _, msg := range msgs {
				m.put(ref, msg)
			}
			m.commit(ref)
		}
		return "TrySend"
	case op < 84:
		if r.Len() == 0 || len(m.buf) == 0 {
			if _, ok := r.TryRecv(); ok || len(m.buf) != 0 {
				w.t.Fatalf("step %d: TryRecv on an empty ring: ok=%v, model holds %d", w.step, ok, len(m.buf))
			}
			return "TryRecv(empty)"
		}
		if rng.Intn(2) == 0 {
			got, _ := r.TryRecv()
			w.sameMsgs("TryRecv", []Message{got}, []Message{m.pop()})
			return "TryRecv"
		}
		max := rng.Intn(6)
		got := r.RecvBatchInto(nil, nil, max) // never blocks: the ring is not empty
		n := len(m.buf)
		if max > 0 && n > max {
			n = max
		}
		var want []Message
		for i := 0; i < n; i++ {
			want = append(want, m.pop())
		}
		w.sameMsgs("RecvBatchInto", got, want)
		return "RecvBatchInto"
	case op < 87:
		w.sameMsgs("Drain", r.Drain(), m.drain())
		return "Drain"
	case op < 89:
		if got, want := w.f.DropInflight(0), m.dropInflight(); got != want {
			w.t.Fatalf("step %d: DropInflight = %d, model %d", w.step, got, want)
		}
		return "DropInflight"
	}
	return "idle"
}

func runRingProgram(t *testing.T, seed int64, steps int) {
	s := sim.New(seed)
	defer s.Shutdown()
	const capBytes, latency = 1536, 2 * time.Microsecond
	f := NewFabric(s, latency)
	w := &ringWorld{t: t, s: s, f: f, r: f.NewRing("model", 0, capBytes),
		m: &refRing{capBytes: capBytes, latency: latency}, rng: rand.New(rand.NewSource(seed))}
	chaos := rand.New(rand.NewSource(seed ^ 0x5eed))
	w.r.SetChaosHook(func([]Message) ChaosVerdict {
		var v ChaosVerdict
		switch c := chaos.Intn(100); {
		case c < 7:
			v.Drop = true
		case c < 14:
			v.Dup = 1 + chaos.Intn(2)
		case c < 20:
			v.Delay = time.Duration(chaos.Intn(int(3 * latency)))
		}
		w.m.verdicts = append(w.m.verdicts, v)
		return v
	})
	for w.step = 0; w.step < steps; w.step++ {
		what := w.do()
		dt := time.Duration(w.rng.Intn(int(latency)))
		if err := s.RunFor(dt); err != nil {
			t.Fatal(err)
		}
		w.m.advance(s.Now())
		if len(w.handles) != len(w.spans) {
			t.Fatalf("step %d after %s: ring handed out %d spans, model %d", w.step, what, len(w.handles), len(w.spans))
		}
		w.compare(what)
		if w.m.nextVerdict != len(w.m.verdicts) {
			t.Fatalf("step %d after %s: ring published %d spans, model %d", w.step, what, len(w.m.verdicts), w.m.nextVerdict)
		}
		// Settle and forget the oldest handles once there are plenty; the
		// tail kept includes closed ones whose records were recycled long ago.
		if n := len(w.handles); n > 48 {
			for i := 0; i < n-32; i++ {
				w.handles[i].Abort()
				w.m.abort(w.spans[i])
			}
			w.handles, w.spans = append(w.handles[:0], w.handles[n-32:]...), append(w.spans[:0], w.spans[n-32:]...)
		}
	}
	if st := w.r.Stats(); st.ReserveWaits == 0 || st.Dropped == 0 || st.Batches == 0 || w.r.Delivered() == 0 {
		t.Errorf("program exercised too little: %+v, %d delivered", st, w.r.Delivered())
	}
	t.Logf("%+v, %d delivered, %d records pooled", w.r.Stats(), w.r.Delivered(), len(w.r.free))
}

func TestRingMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runRingProgram(t, seed, 10000)
		})
	}
}
