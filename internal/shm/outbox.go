package shm

import (
	"time"

	"repro/internal/sim"
)

// Outbox is a batching sender over one Ring: entries collect off-ring and
// leave as one vectored transfer when the owner flushes or, at the latest,
// one interval after the first of them arrived. It is the one place the
// buffer → deadline → spill policy lives; the det log and the TCP sync
// stream each put one in front of every backup's ring (DESIGN.md §9).
//
// Flushes need no mutual exclusion: TryFlush takes the whole buffer or
// nothing, Flush claims a FIFO reservation ticket before it parks, and ring
// claim order is publication order — a batch taken later cannot overtake
// one stalled on a full ring.
type Outbox struct {
	g    *Outboxes
	ring *Ring
	dead bool

	// pending holds the buffered entries, updates the logical updates they
	// stand for (merged ones ride along), bytes their accounted size.
	// spares are the buffer's other arrays: entries that arrive while a
	// blocking flush is stalled collect in one, and the spill server and a
	// task can both be stalled at once.
	pending []Message
	spares  [][]Message
	updates uint64
	bytes   int64

	// deadline is armed one interval ahead when the outbox becomes
	// non-empty and stopped when it empties; due marks its zero-delay hop
	// (expired). A non-empty buffer with no deadline armed is one the ring
	// refused: the spill server's to send.
	deadline sim.Event
	due      bool

	flush func()
	sent  func(entries int, updates uint64)
}

// Outboxes is the group of outboxes one stream keeps — one per backup —
// sharing a flush interval and a spill server.
type Outboxes struct {
	sim      *sim.Simulation
	interval time.Duration
	alive    func() bool
	boxes    []*Outbox
	spillQ   sim.WaitQueue // parks the spill server until a ring refuses a due buffer
}

// Init sets the flush interval and the liveness test of the kernel the
// group sends for: a deadline that outlives the kernel flushes nothing.
func (g *Outboxes) Init(s *sim.Simulation, interval time.Duration, alive func() bool) {
	g.sim, g.interval, g.alive = s, interval, alive
}

// Attach binds o to its ring and adds it to the group. flush is the owner's
// non-blocking flush — whatever it keeps in front of the outbox, then
// TryFlush — run when the deadline is up. sent runs after every transfer
// the outbox publishes, in whichever context flushed. Neither may block.
func (g *Outboxes) Attach(o *Outbox, ring *Ring, flush func(), sent func(entries int, updates uint64)) {
	o.g, o.ring, o.flush, o.sent = g, ring, flush, sent
	o.deadline.Init(g.sim, o.expired)
	g.boxes = append(g.boxes, o)
}

// Serve is the spill server, the one part that must be a process: the
// blocking send that claims a refused buffer's FIFO ticket needs a stack to
// park on. It is never woken while the rings have room.
func (g *Outboxes) Serve(p *sim.Proc) {
	for {
		served := false
		for _, o := range g.boxes {
			if !o.dead && len(o.pending) > 0 && !o.deadline.Armed() {
				o.Flush(p)
				served = true
			}
		}
		if !served {
			g.spillQ.Wait(p)
		}
	}
}

// Ring is the ring the outbox sends on; Dead reports whether Kill has run;
// Len and Bytes report the buffered entries and their accounted size.
func (o *Outbox) Ring() *Ring  { return o.ring }
func (o *Outbox) Dead() bool   { return o.dead }
func (o *Outbox) Len() int     { return len(o.pending) }
func (o *Outbox) Bytes() int64 { return o.bytes }

// Arm starts the deadline one interval ahead; Disarm stops it. The owner
// calls them for what it holds in front of the outbox (the recorder's open
// span), so one deadline covers both.
func (o *Outbox) Arm() {
	o.due = false
	o.deadline.Reset(o.g.interval)
}

func (o *Outbox) Disarm() {
	o.due = false
	o.deadline.Cancel()
}

// expired runs the owner's flush one zero-delay hop after the deadline —
// behind everything already scheduled for that instant, so an entry added
// in the deadline's own instant still rides the batch.
func (o *Outbox) expired() {
	if !o.due {
		o.due = true
		o.deadline.Reset(0)
	} else if o.g.alive() && !o.dead {
		o.flush()
	}
}

// Add buffers one entry; the first arms the deadline.
func (o *Outbox) Add(m Message) {
	if len(o.pending) == 0 {
		o.Arm()
	}
	o.pending = append(o.pending, m)
	o.updates++
	o.bytes += int64(m.Size)
}

// Tail returns the newest buffered entry, nil when there is none, for an
// owner that merges an update into it; Merged then books the update and the
// bytes the entry grew by.
func (o *Outbox) Tail() *Message {
	if n := len(o.pending); n > 0 {
		return &o.pending[n-1]
	}
	return nil
}

func (o *Outbox) Merged(grew int) {
	o.pending[len(o.pending)-1].Size += grew
	o.bytes += int64(grew)
	o.updates++
}

// TryFlush publishes the buffer as one transfer without blocking, so it is
// safe in scheduler context. A buffer the ring refuses — no capacity, or a
// reservation ticket queued ahead — stays, deadline disarmed, and the spill
// server is woken to send it.
func (o *Outbox) TryFlush() {
	n, updates := len(o.pending), o.updates
	if n == 0 {
		return
	}
	o.Disarm()
	if !o.ring.TrySendBatch(o.pending) {
		o.g.spillQ.WakeAll(0)
		return
	}
	clear(o.pending)
	o.pending, o.updates, o.bytes = o.pending[:0], 0, 0
	o.sent(n, updates)
}

// Flush drains the buffer with blocking sends, from task context. Entries
// added while it is parked on a full ring go out in the next iteration,
// still in order: the ring refuses opportunistic claims while a ticket
// waits. A Kill while it is parked drains the ring, which admits the ticket;
// the span it is handed is given back unpublished.
func (o *Outbox) Flush(p *sim.Proc) {
	for len(o.pending) > 0 && !o.dead {
		batch, updates := o.pending, o.updates
		o.pending, o.updates, o.bytes = nil, 0, 0
		if n := len(o.spares); n > 0 {
			o.pending, o.spares = o.spares[n-1], o.spares[:n-1]
		}
		o.Disarm()
		sp := o.ring.Reserve(p, len(batch), payloadBytes(batch))
		if o.dead {
			sp.Abort()
			return
		}
		for i := range batch {
			sp.Put(batch[i]) // by value: the array is ours again
		}
		sp.Commit()
		o.sent(len(batch), updates)
		clear(batch)
		o.spares = append(o.spares, batch[:0])
	}
}

// Kill marks the outbox dead, discards what it buffered and drains its ring
// — which releases a sender parked on it. Once: a second drain would abort
// the span the first hands a queued sender.
func (o *Outbox) Kill() {
	o.dead = true
	o.Disarm()
	o.pending, o.spares, o.updates, o.bytes = nil, nil, 0, 0
	o.ring.Drain()
}
