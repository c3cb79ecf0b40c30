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
// behind it — the reserve-without-commit leak the ftvet lockorder
// analyzer reports statically.
type Span struct {
	ring      *Ring
	msgs      []Message
	capMsgs   int
	budget    int64 // payload byte budget reserved for this span
	usedBytes int64 // payload bytes written so far
	reserved  int64 // ring bytes held: headerBytes + budget, shrunk at commit
	committed bool
	aborted   bool
}

// resTicket is one sender waiting for reservation capacity. Tickets are
// admitted strictly in claim order — the Disruptor discipline: a
// producer claims its sequence first and then waits for the consumer to
// free the slots, so a later (even smaller) reservation can never
// overtake an earlier one and reorder the stream.
type resTicket struct {
	n     int
	bytes int64
	span  *Span
}

// Reserve claims the next n-slot span with the given payload byte
// budget, blocking the calling process while the ring lacks capacity
// (the drain-rate backpressure of a bounded mailbox). The claim is
// FIFO: a blocked reservation holds its place in the ring sequence, so
// concurrent senders need no further serialization to keep their spans
// in order. The returned span must be committed (or aborted) — an open
// span blocks every span reserved after it from publishing.
func (r *Ring) Reserve(p *sim.Proc, n int, payloadBytes int64) *Span {
	fp := headerBytes + payloadBytes
	if fp > r.capBytes {
		panic(fmt.Sprintf("shm: reservation of %d bytes exceeds ring %q capacity %d", fp, r.name, r.capBytes))
	}
	if len(r.resQ) == 0 && fp <= r.capBytes-r.used {
		return r.admit(n, payloadBytes)
	}
	start := r.sim.Now()
	tk := &resTicket{n: n, bytes: payloadBytes}
	r.resQ = append(r.resQ, tk)
	r.stats.ReserveWaits++
	// A killed sender unwinds out of Wait without ever being admitted;
	// the deferred cleanup removes its ticket so the claim queue cannot
	// jam behind a dead process.
	defer func() {
		if tk.span == nil {
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
	}()
	for tk.span == nil {
		r.sendQ.Wait(p)
	}
	return tk.span
}

// TryReserve claims a span without blocking. It fails when the ring
// lacks capacity — or when earlier reservations are still waiting for
// it: jumping the claim queue would publish this span ahead of spans
// reserved before it.
func (r *Ring) TryReserve(n int, payloadBytes int64) *Span {
	fp := headerBytes + payloadBytes
	if fp > r.capBytes {
		panic(fmt.Sprintf("shm: reservation of %d bytes exceeds ring %q capacity %d", fp, r.name, r.capBytes))
	}
	if len(r.resQ) > 0 || fp > r.capBytes-r.used {
		return nil
	}
	return r.admit(n, payloadBytes)
}

// admit accounts a reservation and appends the open span to the
// publication queue. Runs at claim time (fast path) or when capacity
// frees (queued tickets), always in claim order.
func (r *Ring) admit(n int, payloadBytes int64) *Span {
	sp := &Span{
		ring:     r,
		msgs:     make([]Message, 0, n),
		capMsgs:  n,
		budget:   payloadBytes,
		reserved: headerBytes + payloadBytes,
	}
	r.used += sp.reserved
	if r.used > r.stats.HighWaterBytes {
		r.stats.HighWaterBytes = r.used
	}
	r.spans = append(r.spans, sp)
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	return sp
}

// admitWaiters admits queued reservations, strictly head-first, while
// capacity allows, and wakes every parked sender to pick up its span.
func (r *Ring) admitWaiters() {
	admitted := false
	for len(r.resQ) > 0 {
		tk := r.resQ[0]
		if headerBytes+tk.bytes > r.capBytes-r.used {
			break
		}
		r.resQ = append(r.resQ[:0], r.resQ[1:]...) // slide down: q[1:] would lose the array's front
		tk.span = r.admit(tk.n, tk.bytes)
		admitted = true
	}
	if admitted {
		r.sendQ.WakeAll(0)
	}
}

// unqueue removes a ticket from the claim queue (killed sender cleanup).
func (r *Ring) unqueue(tk *resTicket) {
	for i, x := range r.resQ {
		if x == tk {
			r.resQ = append(r.resQ[:i], r.resQ[i+1:]...)
			return
		}
	}
}

// Put writes one payload into the next slot of the span — the in-place
// write of the zero-copy path. It reports false when the span is full
// (slot count or byte budget); the sender then commits this span and
// reserves a fresh one. Put on a committed or aborted span panics: the
// slots are no longer the sender's to write.
func (sp *Span) Put(m Message) bool {
	if sp.committed || sp.aborted {
		panic("shm: Put on a published span (slots belong to the consumer after Commit)")
	}
	if len(sp.msgs) >= sp.capMsgs || sp.usedBytes+int64(m.Size) > sp.budget {
		return false
	}
	sp.msgs = append(sp.msgs, m)
	sp.usedBytes += int64(m.Size)
	return true
}

// Len reports the number of payloads written so far.
func (sp *Span) Len() int { return len(sp.msgs) }

// Bytes reports the payload bytes written so far.
func (sp *Span) Bytes() int64 { return sp.usedBytes }

// Commit publishes every payload written into the span with one
// release-store: the unused tail of the reservation is returned to the
// ring, the chaos hook is consulted once for the whole span, and a
// single propagation event carries it to the receiver (FIFO behind
// every span reserved earlier). Committing an empty span is equivalent
// to Abort — no transfer, no propagation event, no header paid — which
// is what makes a force-flush racing a flush deadline harmless.
// Commit never blocks, so it is safe in scheduler context.
func (sp *Span) Commit() {
	if sp.committed || sp.aborted {
		return
	}
	if len(sp.msgs) == 0 {
		sp.ring.abortSpan(sp)
		return
	}
	sp.committed = true
	r := sp.ring
	actual := headerBytes + sp.usedBytes
	if actual < sp.reserved {
		r.used -= sp.reserved - actual
		sp.reserved = actual
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
		r.admitWaiters()
	}
	r.publishReady()
}

// Abort releases the reservation without publishing: nothing was sent,
// the capacity returns to the ring, and spans reserved after this one
// may publish. The fault paths (a link dying with an open span, a
// promotion draining a ring mid-span) use it to unjam the sequence.
func (sp *Span) Abort() {
	if sp.committed {
		return
	}
	sp.ring.abortSpan(sp)
}

// Open reports whether the span is still writable (neither committed
// nor aborted).
func (sp *Span) Open() bool { return !sp.committed && !sp.aborted }

// abortSpan removes an unpublished span from the publication queue and
// frees its reservation.
func (r *Ring) abortSpan(sp *Span) {
	if sp.aborted {
		return
	}
	sp.aborted = true
	for i, x := range r.spans {
		if x == sp {
			r.spans = append(r.spans[:i], r.spans[i+1:]...)
			break
		}
	}
	r.used -= sp.reserved
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
	for len(r.spans) > 0 && r.spans[0].committed {
		sp := r.spans[0]
		r.spans = r.spans[1:]
		r.publish(sp)
	}
}

// OpenSpans reports the number of reserved spans not yet published —
// the span-occupancy signal the adaptive batching controller exports.
func (r *Ring) OpenSpans() int { return len(r.spans) }
