// Package lockiface is the golden fixture for lockorder's
// interprocedural layer: a lock-order cycle whose two halves live in
// different functions, one of them reachable only through an interface
// call. Neither function acquires two locks itself, so the old
// single-function walk saw no edge at all.
package lockiface

import (
	"repro/internal/kernel"
	"repro/internal/pthread"
)

type D struct {
	a, b *pthread.Mutex
}

// lockB holds the second acquisition on its own: no edge locally.
func (d *D) lockB(t *kernel.Task) {
	d.b.Lock(t)
	d.b.Unlock(t)
}

// forward holds a across the call to lockB: the summary-based edge
// D.a -> D.b.
func (d *D) forward(t *kernel.Task) {
	d.a.Lock(t)
	d.lockB(t)
	d.a.Unlock(t)
}

// parker is the dispatch indirection: reverse only ever sees the
// interface, so the edge to D.a exists solely through type-set-bounded
// resolution.
type parker interface {
	park(t *kernel.Task)
}

type aParker struct{ d *D }

func (p *aParker) park(t *kernel.Task) {
	p.d.a.Lock(t)
	p.d.a.Unlock(t)
}

// reverse holds b across the interface call that (via aParker) locks a:
// the edge D.b -> D.a closes the cycle with forward's D.a -> D.b.
func (d *D) reverse(t *kernel.Task, p parker) {
	d.b.Lock(t)
	p.park(t) // want "lock-order cycle"
	d.b.Unlock(t)
}

// consistent repeats forward's order through the same helper: no new
// edge direction, no finding.
func (d *D) consistent(t *kernel.Task) {
	d.a.Lock(t)
	d.lockB(t)
	d.a.Unlock(t)
}

// ping and pong recurse into each other and only pong locks: their shared
// component must converge with D.a in both summaries. Nothing is held
// across either call, so the recursion adds no edge.
func (d *D) ping(t *kernel.Task, n int) {
	if n > 0 {
		d.pong(t, n-1)
	}
}

func (d *D) pong(t *kernel.Task, n int) {
	d.a.Lock(t)
	d.a.Unlock(t)
	d.ping(t, n)
}
