// Package streambuf is the byte queue under every TCP stream buffer of the
// simulation: a connection's send and receive buffers (tcpstack) and a
// logical connection's input and regenerated-output streams (tcprep). All
// four append at the back, and all but the retained input stream discard at
// the front, forever; a plain slice used
// that way (buf = append(buf, p...), buf = buf[n:]) re-allocates the whole
// live window each time its capacity slides off the front, which made the
// simulator move every payload byte through fresh memory a dozen times.
//
// A Window keeps its live bytes contiguous in one backing array, slides
// them back to the start only when the discarded prefix is at least as long
// as what has to move (so a byte is moved O(1) times amortised, however full
// the window runs), and doubles the array otherwise. It is sized by use: an
// empty window holds no memory. Backing arrays come from and return to a
// Pool — a free list the owner of the windows holds (a tcpstack.Stack, a
// tcprep.ConnTable), never the package, so two simulations in one process
// share nothing and the allocation count of a run does not depend on the
// garbage collector's timing. A Lender draws from the same Pool: it is the
// storage behind the bytes a read hands its caller. See DESIGN.md §20.
package streambuf

import (
	"math/bits"
	"testing"
)

// minClass is the smallest backing array handed out (256 B): below it the
// slice header costs more than the bytes.
const minClass = 8

// Pool is a free list of backing arrays by power-of-two capacity. The zero
// value is ready; a nil *Pool allocates and never reuses.
type Pool struct {
	free [bits.UintSize][][]byte
}

// get returns an empty slice whose capacity is the power of two at or above n.
func (p *Pool) get(n int) []byte {
	c := minClass
	if n > 1<<minClass {
		c = bits.Len(uint(n - 1))
	}
	if p != nil {
		if l := p.free[c]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[c] = l[:len(l)-1]
			return b
		}
	}
	return make([]byte, 0, 1<<c)
}

// put takes a backing array back. Arrays the pool did not hand out (their
// capacity is not one of its classes) are left to the collector.
func (p *Pool) put(b []byte) {
	if c := cap(b); p != nil && c >= 1<<minClass && c&(c-1) == 0 {
		k := bits.Len(uint(c)) - 1
		p.free[k] = append(p.free[k], b[:0])
	}
}

// Window is a FIFO of bytes with a contiguous view of everything queued.
// The zero value is an empty window without a pool.
type Window struct {
	pool *Pool
	buf  []byte // live bytes are buf[head:]
	head int
}

// Init binds an empty window to the free list its backing arrays come from.
func (w *Window) Init(p *Pool) { w.pool = p }

// Len reports the number of queued bytes.
func (w *Window) Len() int { return len(w.buf) - w.head }

// Bytes returns the queued bytes, oldest first. The view aliases the
// window's memory: it is valid until the next Append, Discard or Set, and a
// caller that keeps bytes longer copies them.
func (w *Window) Bytes() []byte { return w.buf[w.head:] }

// Append queues a copy of p.
func (w *Window) Append(p []byte) {
	if len(w.buf)+len(p) > cap(w.buf) {
		w.makeRoom(len(p))
	}
	w.buf = append(w.buf, p...)
}

// makeRoom gets n bytes of spare capacity behind the live bytes: by sliding
// them to the start of the array when the dead prefix is at least as long
// as they are (each slid byte is paid for by a discarded one), by moving to
// an array of twice the capacity otherwise.
func (w *Window) makeRoom(n int) {
	live := w.Len()
	if w.head >= live && live+n <= cap(w.buf) {
		copy(w.buf, w.buf[w.head:])
		w.buf, w.head = w.buf[:live], 0
		return
	}
	nb := w.pool.get(max(2*cap(w.buf), live+n))[:live]
	copy(nb, w.buf[w.head:])
	w.pool.put(w.buf)
	w.buf, w.head = nb, 0
}

// Discard drops the n oldest bytes. A window that drains gives its backing
// array back, so an idle or closed connection holds no buffer.
func (w *Window) Discard(n int) {
	if n < 0 || n > w.Len() {
		panic("streambuf: Discard beyond the queued bytes")
	}
	if w.head += n; w.head == len(w.buf) {
		w.pool.put(w.buf)
		w.buf, w.head = nil, 0
	}
}

// Set replaces the contents with a copy of p.
func (w *Window) Set(p []byte) {
	w.Discard(w.Len())
	w.Append(p)
}

// Lender is the storage behind the views a reader is lent: tcpstack's
// Conn.Recv and tcprep's replayed read copy the bytes they return into one
// and hand out a view of it, valid until the next Lend or Reclaim. Its
// array comes from and returns to a Pool; the zero value lends without one.
type Lender struct {
	pool *Pool
	buf  []byte // the storage behind the last view
}

// poisonReleased makes Lend and Reclaim scribble the storage behind the
// view they end, so a reader that keeps a view past its lease fails a
// byte-identity assertion instead of passing because nothing had reused
// the storage yet. It is on in every test binary and off everywhere else.
var poisonReleased = testing.Testing()

// Init binds an empty lender to the free list its arrays come from.
func (l *Lender) Init(p *Pool) { l.pool = p }

// Lend copies p into the lender's storage — taking a larger array from the
// pool if p does not fit — and returns the copy. The previous view dies.
func (l *Lender) Lend(p []byte) []byte {
	l.scribble()
	if cap(l.buf) < len(p) {
		l.pool.put(l.buf)
		l.buf = l.pool.get(len(p))
	}
	l.buf = append(l.buf[:0], p...)
	return l.buf
}

// Reclaim gives the storage back to the pool; the last view dies with it.
func (l *Lender) Reclaim() {
	l.scribble()
	l.pool.put(l.buf)
	l.buf = nil
}

func (l *Lender) scribble() {
	if buf := l.buf[:cap(l.buf)]; poisonReleased && len(buf) > 0 {
		buf[0] = 0xdb
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n]) // memmove-speed fill, also under -race
		}
	}
}
