package shm

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Span is a reserved slot range in a ring: the zero-copy sending unit of
// the lock-free fabric. A sender claims ring sequence and capacity with
// Reserve, writes payloads in place with Put, and publishes everything
// it wrote with a single Commit — the model of an MPSC ring where the
// producer's only shared-memory writes are a fetch-add on the write
// cursor at claim time and one release-store of the span header at
// publish time. Until Commit, the span's slots are private to the
// sender: the consumer's acquire-load of the header sees either nothing
// or the whole committed span, never a partial write.
//
// Reservation order is publication order. A committed span becomes
// visible only after every span reserved before it has been committed
// (or aborted): the consumer cannot advance past an unpublished slot.
// A reserved span that is never committed therefore stalls the ring
// behind it: the reserve-without-commit leak hangs every later sender,
// which the ring and outbox tests see as a sender that never returns.
//
// A Span is a small value: a handle naming one record of its ring and the
// generation it was issued in. The ring recycles the record once the span
// is published, aborted or lost to a fault, bumping the generation — so a
// handle kept past that point (the recorder keeps one per link across
// DropInflight, Drain and link abandonment) reads closed, whoever the
// record serves by then. The zero Span is closed.
type Span struct {
	x   *xfer
	gen uint64
}

// resTicket is one sender waiting for reservation capacity. Tickets are
// admitted strictly in claim order — the Disruptor discipline: a
// producer claims its sequence first and then waits for the consumer to
// free the slots, so a later (even smaller) reservation can never
// overtake an earlier one and reorder the stream.
type resTicket struct {
	n     int
	bytes int64
	span  Span // set at admission
}

// Reserve claims the next n-slot span with the given payload byte
// budget, blocking the calling process while the ring lacks capacity
// (the drain-rate backpressure of a bounded mailbox). The claim is
// FIFO: a blocked reservation holds its place in the ring sequence, so
// concurrent senders need no further serialization to keep their spans
// in order. The returned span must be committed (or aborted) — an open
// span blocks every span reserved after it from publishing.
func (r *Ring) Reserve(p *sim.Proc, n int, payloadBytes int64) Span {
	fp := headerBytes + payloadBytes
	if fp > r.capBytes {
		panic(fmt.Sprintf("shm: reservation of %d bytes exceeds ring %q capacity %d", fp, r.name, r.capBytes))
	}
	if r.resHead == len(r.resQ) && fp <= r.capBytes-r.used {
		return r.admit(n, payloadBytes)
	}
	start := r.sim.Now()
	var tk *resTicket
	if k := len(r.freeTk); k > 0 {
		tk, r.freeTk = r.freeTk[k-1], r.freeTk[:k-1]
	} else {
		tk = new(resTicket)
	}
	*tk = resTicket{n: n, bytes: payloadBytes}
	r.resQ = append(r.resQ, tk)
	r.stats.ReserveWaits++
	// A killed sender unwinds out of Wait without ever being admitted;
	// the deferred cleanup removes its ticket so the claim queue cannot
	// jam behind a dead process.
	defer func() {
		if tk.span.x == nil {
			r.unqueue(tk)
			r.admitWaiters()
		} else {
			waited := int64(r.sim.Now().Sub(start))
			r.stats.SendWaitNs += waited
			// Only blocked reservations are traced: the event exists to
			// attribute ring back-pressure on the critical path, and the
			// fast path would flood the trace with zero-wait claims.
			r.sc.Emit(obs.SpanReserve, 0, r.stats.ReserveWaits, waited)
		}
		r.freeTk = append(r.freeTk, tk)
	}()
	for tk.span.x == nil {
		r.sendQ.Wait(p)
	}
	return tk.span
}

// TryReserve claims a span without blocking. It fails — returning a
// closed span, which Open reports — when the ring lacks capacity, or when
// earlier reservations are still waiting for it: jumping the claim queue
// would publish this span ahead of spans reserved before it.
func (r *Ring) TryReserve(n int, payloadBytes int64) Span {
	fp := headerBytes + payloadBytes
	if fp > r.capBytes {
		panic(fmt.Sprintf("shm: reservation of %d bytes exceeds ring %q capacity %d", fp, r.name, r.capBytes))
	}
	if r.resHead < len(r.resQ) || fp > r.capBytes-r.used {
		return Span{}
	}
	return r.admit(n, payloadBytes)
}

// admit accounts a reservation on a recycled record and appends the open
// span to the publication queue. Runs at claim time (fast path) or when
// capacity frees (queued tickets), always in claim order.
func (r *Ring) admit(n int, payloadBytes int64) Span {
	x := r.record()
	x.capMsgs, x.budget, x.usedBytes, x.reserved = n, payloadBytes, 0, headerBytes+payloadBytes
	r.used += x.reserved
	if r.used > r.stats.HighWaterBytes {
		r.stats.HighWaterBytes = r.used
	}
	r.spans = append(r.spans, x)
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	return Span{x, x.gen}
}

// admitWaiters admits queued reservations, strictly head-first, while
// capacity allows, and wakes every parked sender to pick up its span.
func (r *Ring) admitWaiters() {
	admitted := false
	for r.resHead < len(r.resQ) {
		tk := r.resQ[r.resHead]
		if headerBytes+tk.bytes > r.capBytes-r.used {
			break
		}
		r.resQ, r.resHead = sim.PopFront(r.resQ, r.resHead)
		tk.span = r.admit(tk.n, tk.bytes)
		admitted = true
	}
	if admitted {
		r.sendQ.WakeAll(0)
	}
}

// unqueue removes a ticket from the claim queue (killed sender cleanup).
func (r *Ring) unqueue(tk *resTicket) {
	for i := r.resHead; i < len(r.resQ); i++ {
		if r.resQ[i] == tk {
			last := len(r.resQ) - 1
			copy(r.resQ[i:], r.resQ[i+1:])
			r.resQ[last] = nil
			r.resQ = r.resQ[:last]
			return
		}
	}
}

// live returns the span's record while the handle is current — issued in
// the record's present generation and not yet committed — and nil once it
// is closed.
func (sp Span) live() *xfer {
	if sp.x == nil || sp.x.gen != sp.gen || sp.x.committed {
		return nil
	}
	return sp.x
}

// Put writes one payload into the next slot of the span — the in-place
// write of the zero-copy path. It reports false when the span is full
// (slot count or byte budget); the sender then commits this span and
// reserves a fresh one. Put on a closed span panics: the slots are no
// longer the sender's to write.
func (sp Span) Put(m Message) bool {
	x := sp.live()
	if x == nil {
		panic("shm: Put on a published span (slots belong to the consumer after Commit)")
	}
	if len(x.msgs) >= x.capMsgs || x.usedBytes+int64(m.Size) > x.budget {
		return false
	}
	x.msgs = append(x.msgs, m)
	x.usedBytes += int64(m.Size)
	return true
}

// Len reports the number of payloads written so far (zero once closed).
func (sp Span) Len() int {
	if x := sp.live(); x != nil {
		return len(x.msgs)
	}
	return 0
}

// Commit publishes every payload written into the span with one
// release-store: the unused tail of the reservation is returned to the
// ring, the chaos hook is consulted once for the whole span, and a
// single propagation event carries it to the receiver (FIFO behind
// every span reserved earlier). Committing an empty span is equivalent
// to Abort — no transfer, no propagation event, no header paid — which
// is what makes a force-flush racing a flush deadline harmless. Commit
// on a closed span is a no-op. Commit never blocks, so it is safe in
// scheduler context.
func (sp Span) Commit() {
	x := sp.live()
	if x == nil {
		return
	}
	r := x.ring
	if len(x.msgs) == 0 {
		r.abortSpan(x)
		return
	}
	x.committed = true
	actual := headerBytes + x.usedBytes
	if actual < x.reserved {
		r.used -= x.reserved - actual
		x.reserved = actual
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
		r.admitWaiters()
	}
	r.publishReady()
}

// Abort releases the reservation without publishing: nothing was sent,
// the capacity returns to the ring, and spans reserved after this one
// may publish. The fault paths (a link dying with an open span, a
// promotion draining a ring mid-span) use it to unjam the sequence.
// Abort on a closed span is a no-op.
func (sp Span) Abort() {
	if x := sp.live(); x != nil {
		x.ring.abortSpan(x)
	}
}

// Open reports whether the span is still writable: neither committed nor
// aborted nor lost to DropInflight or Drain.
func (sp Span) Open() bool { return sp.live() != nil }

// abortSpan removes an open span from the publication queue, frees its
// reservation and recycles the record.
func (r *Ring) abortSpan(x *xfer) {
	for i := r.spansHead; i < len(r.spans); i++ {
		if r.spans[i] == x {
			last := len(r.spans) - 1
			copy(r.spans[i:], r.spans[i+1:])
			r.spans[last] = nil
			r.spans = r.spans[:last]
			break
		}
	}
	r.used -= x.reserved
	r.release(x)
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	r.admitWaiters()
	r.sendQ.WakeAll(0)
	r.publishReady()
}

// publishReady publishes the committed prefix of the span queue: the
// consumer side can only advance over slots whose headers carry the
// committed mark, so a span waits here until everything reserved before
// it has published or aborted.
func (r *Ring) publishReady() {
	for r.spansHead < len(r.spans) && r.spans[r.spansHead].committed {
		x := r.spans[r.spansHead]
		r.spans, r.spansHead = sim.PopFront(r.spans, r.spansHead)
		r.publish(x)
	}
}

// OpenSpans reports the number of reserved spans not yet published —
// the span-occupancy signal the adaptive batching controller exports.
func (r *Ring) OpenSpans() int { return len(r.spans) - r.spansHead }
