// Package spanleak is the golden fixture for the interprocedural
// span-leak check: a reservation handed to a helper is judged by the
// helper's span summary. The bug shape is a callee that commits on the
// happy path but early-returns around the settle — neither function
// shows the leak alone.
package spanleak

import (
	"repro/internal/shm"
	"repro/internal/sim"
)

// fill commits unless the put fails, returning early with the span
// still open: SpanLeaks.
func fill(sp shm.Span, m shm.Message) bool {
	if !sp.Put(m) {
		return false // the early-return leak: no Commit, no Abort
	}
	sp.Commit()
	return true
}

// commitAll settles on every path: SpanSettles.
func commitAll(sp shm.Span, m shm.Message) {
	if sp.Put(m) {
		sp.Commit()
	} else {
		sp.Abort()
	}
}

// use only writes into the span: SpanPassThrough, responsibility stays
// with the caller.
func use(sp shm.Span, m shm.Message) { sp.Put(m) }

type W struct{ ring *shm.Ring }

// leaky hands its reservation to the early-returning helper: reported
// here, with the chain to the unsettled exit in fill.
func (w *W) leaky(p *sim.Proc, m shm.Message) {
	sp := w.ring.Reserve(p, 1, 64) // want "handed to fill, which can return without committing"
	fill(sp, m)
}

// settled hands the reservation to a helper that provably settles it.
func (w *W) settled(p *sim.Proc, m shm.Message) {
	sp := w.ring.Reserve(p, 1, 64)
	commitAll(sp, m)
}

// passthrough hands the span to a helper that merely uses it and then
// forgets it: the classic leak, now visible through the call.
func (w *W) passthrough(p *sim.Proc, m shm.Message) {
	sp := w.ring.Reserve(p, 1, 64) // want "never committed or aborted"
	use(sp, m)
}

// passthroughSettled uses the helper and settles locally: clean.
func (w *W) passthroughSettled(p *sim.Proc, m shm.Message) {
	sp := w.ring.Reserve(p, 1, 64)
	use(sp, m)
	sp.Commit()
}
