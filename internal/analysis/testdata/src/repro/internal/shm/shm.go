// Package shm is a fixture stub mirroring the real repro/internal/shm
// zero-copy span: nondet treats a span's Put as an ordered sink.
package shm

// Message mirrors the real mailbox message.
type Message struct {
	Kind int
	Size int
}

// Span mirrors the zero-copy reservation unit: a small handle to a
// claimed slot range written in place and published with one Commit.
type Span struct{}

// Put writes one payload into the span in place.
func (sp Span) Put(m Message) bool { return true }
