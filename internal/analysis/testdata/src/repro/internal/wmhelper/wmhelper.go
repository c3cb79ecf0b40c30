// Package wmhelper is the golden fixture for watermark's
// interprocedural layer: the arm site lives in a helper, and the
// flush-before-arm invariant is judged at the call sites. The helper
// itself is reported nowhere — it is fine precisely when every caller
// flushes first — while each caller that fails to flush is flagged with
// the chain to the arming statement.
package wmhelper

type waiter struct {
	watermark uint64
	fn        func()
}

type H struct {
	q    []waiter
	sent uint64
	buf  int
}

func (h *H) flushForCommit() { h.buf = 0 }

// arm appends a waiter with no internal flush. With in-tree callers it
// carries the obligation outward instead of being reported here.
func (h *H) arm(fn func()) {
	h.q = append(h.q, waiter{watermark: h.sent, fn: fn})
}

// callerBad arms through the helper without a flush first.
func (h *H) callerBad(fn func()) {
	h.arm(fn) // want "call to arm arms an output-commit waiter"
}

// callerGood flushes before the call: the arm inside is covered.
func (h *H) callerGood(fn func()) {
	h.flushForCommit()
	h.arm(fn)
}

// deepArm forwards to arm without a flush: an unflushed frame in the
// middle of the chain is reported too — each frame can fix it locally.
func (h *H) deepArm(fn func()) {
	h.arm(fn) // want "call to arm arms an output-commit waiter"
}

// deepCaller reaches the arm two calls down with no flush anywhere.
func (h *H) deepCaller(fn func()) {
	h.deepArm(fn) // want "call to deepArm arms an output-commit waiter"
}

// deepCallerGood: a flush before the top call covers the whole chain.
func (h *H) deepCallerGood(fn func()) {
	h.flushForCommit()
	h.deepArm(fn)
}
