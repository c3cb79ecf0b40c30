// Package streambuf is the byte storage under every TCP stream buffer of the
// simulation: a connection's send and receive buffers (tcpstack) and a
// logical connection's input and regenerated-output streams (tcprep). All
// four append at the back. The retained input stream never discards: it is
// a Tape, an append-only log of chunks that never move, so the views it
// hands out stay valid. The other three discard at the front, forever; a
// plain slice used that way (buf = append(buf, p...), buf = buf[n:])
// re-allocates the whole live window each time its capacity slides off the
// front, which made the simulator move every payload byte through fresh
// memory a dozen times.
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

// A Tape's first chunk is tapeFirst bytes, carved from its owner's Slab;
// every later chunk is twice the one before, up to tapeMax. A Slab carves
// from arrays of slabBytes, and only chunks of at most a quarter of one.
const (
	tapeFirst = 64
	tapeMax   = 64 << 10
	slabBytes = 16 << 10
)

// Slab hands out small arrays carved from larger ones, so a tape's first
// chunk costs a fraction of an allocation: a short connection's whole input
// fits in it. A carved array is never given back. The owner of the tapes
// holds the slab (a tcprep.ConnTable, as it holds its Pool); the zero value
// is ready and a nil *Slab allocates every array.
type Slab struct {
	free []byte
}

// carve returns an empty slice of capacity n.
func (s *Slab) carve(n int) []byte {
	if s == nil || n > slabBytes/4 {
		return make([]byte, 0, n)
	}
	if len(s.free) < n {
		s.free = make([]byte, slabBytes)
	}
	b := s.free[:0:n]
	s.free = s.free[n:]
	return b
}

// Tape is an append-only byte log: a logical connection's retained input
// stream, which is read back by range and never discarded. It is kept in
// chunks that are never copied to grow and never reused, so the view Append
// returns stays valid, and unchanged, for as long as the tape lives: a
// caller may hand it on instead of copying it. The zero value is an empty
// tape without a slab.
type Tape struct {
	slab *Slab
	tail []byte      // the chunk appends go to: the tape's last len(tail) bytes
	done []tapeChunk // the chunks before tail, oldest first
	n    int
}

// tapeChunk is a full chunk of a Tape and the tape offset of its first byte.
type tapeChunk struct {
	off int
	b   []byte
}

// Init binds an empty tape to the slab its first chunk is carved from.
func (t *Tape) Init(s *Slab) { t.slab = s }

// Len reports the number of bytes appended.
func (t *Tape) Len() int { return t.n }

// Append copies p onto the end of the tape, contiguously, and returns a view
// of the copy. The view's capacity ends with it, so appending to the view
// copies instead of writing into the tape.
func (t *Tape) Append(p []byte) []byte {
	if len(p) > cap(t.tail)-len(t.tail) {
		t.grow(len(p))
	}
	i := len(t.tail)
	t.tail = append(t.tail, p...)
	t.n += len(p)
	return t.tail[i:len(t.tail):len(t.tail)]
}

// grow starts a new chunk of at least n bytes. The old tail's spare bytes
// stay unused: an append is never split.
func (t *Tape) grow(n int) {
	size := tapeFirst
	if c := cap(t.tail); c > 0 {
		t.done = append(t.done, tapeChunk{t.n - len(t.tail), t.tail})
		size = min(2*c, tapeMax)
	}
	if len(t.done) == 0 {
		t.tail = t.slab.carve(max(size, n))
	} else {
		t.tail = make([]byte, 0, max(size, n))
	}
}

// Clone returns a copy of the tape's bytes from offset lo on, nil if there
// are none.
func (t *Tape) Clone(lo int) []byte {
	if lo == t.n {
		return nil
	}
	return t.AppendTo(make([]byte, 0, t.n-lo), lo, t.n)
}

// AppendTo appends the tape's bytes [lo, hi) to dst.
func (t *Tape) AppendTo(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi < lo || hi > t.n {
		panic("streambuf: Tape range out of bounds")
	}
	// The chunk holding lo: the last one that starts at or before it.
	i, j := 0, len(t.done)
	for i < j {
		if h := int(uint(i+j) >> 1); t.done[h].off <= lo {
			i = h + 1
		} else {
			j = h
		}
	}
	tail := t.n - len(t.tail)
	for i--; lo < min(hi, tail); i++ {
		c := t.done[i]
		end := min(hi-c.off, len(c.b))
		dst = append(dst, c.b[lo-c.off:end]...)
		lo = c.off + end
	}
	if lo < hi {
		dst = append(dst, t.tail[lo-tail:hi-tail]...)
	}
	return dst
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
	l.room(len(p))
	l.buf = append(l.buf, p...)
	return l.buf
}

// LendTape is Lend of the tape's bytes [lo, hi).
func (l *Lender) LendTape(t *Tape, lo, hi int) []byte {
	l.room(hi - lo)
	l.buf = t.AppendTo(l.buf, lo, hi)
	return l.buf
}

// room ends the previous view and empties the storage, with room for n bytes.
func (l *Lender) room(n int) {
	l.scribble()
	if cap(l.buf) < n {
		l.pool.put(l.buf)
		l.buf = l.pool.get(n)
	}
	l.buf = l.buf[:0]
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
