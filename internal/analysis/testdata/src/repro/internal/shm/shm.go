// Package shm is a fixture stub mirroring the real repro/internal/shm
// mailbox surface: the analyzers treat calls into a package path
// containing "internal/shm" as mailbox re-entry (detsection) and its
// blocking ring operations as transient lock acquisitions (lockorder).
package shm

import "repro/internal/sim"

// Message mirrors the real mailbox message.
type Message struct {
	Kind int
	Size int
	W    [7]uint64
	Data []byte
	Ref  any
}

// Ring mirrors the bounded mailbox ring.
type Ring struct{ used int64 }

// Send blocks until the ring can take m.
func (r *Ring) Send(p *sim.Proc, m Message) { r.used += int64(m.Size) }

// SendBatch blocks until the ring can take the whole batch.
func (r *Ring) SendBatch(p *sim.Proc, msgs []Message) {}

// TrySend delivers without blocking, reporting success.
func (r *Ring) TrySend(m Message) bool { return true }

// TrySendBatch delivers a batch without blocking, reporting success.
func (r *Ring) TrySendBatch(msgs []Message) bool { return true }

// Recv blocks until a message arrives.
func (r *Ring) Recv(p *sim.Proc) Message { return Message{} }

// Span mirrors the zero-copy reservation unit: a small handle to a
// claimed slot range written in place and published with one Commit.
type Span struct{ ring *Ring }

// Reserve claims a span, blocking for ring capacity (lockorder treats
// it as a transient acquisition, like the wrapper sends).
func (r *Ring) Reserve(p *sim.Proc, n int, payloadBytes int64) Span { return Span{ring: r} }

// TryReserve claims a span without blocking (a closed span when it would
// block or would jump earlier waiters).
func (r *Ring) TryReserve(n int, payloadBytes int64) Span { return Span{ring: r} }

// Put writes one payload into the span in place.
func (sp Span) Put(m Message) bool { return true }

// Commit publishes the span with one release-store.
func (sp Span) Commit() {}

// Abort releases the reservation without publishing.
func (sp Span) Abort() {}

// Open reports whether the span is still writable.
func (sp Span) Open() bool { return false }

// Len reports the payloads written so far.
func (sp Span) Len() int { return 0 }
