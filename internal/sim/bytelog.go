package sim

// Chunk sizes of a ByteLog: the first chunk holds byteChunkMin bytes, each
// later one twice its predecessor, up to byteChunkMax.
const byteChunkMin, byteChunkMax = 1 << 10, 16 << 10

// ByteLog is a byte stream that grows at the back and is dropped at the
// front — variable-length records a reader decodes in order. A position in
// it is a stream offset, counted from the first byte ever appended. Bytes
// are kept in chunks that never move: each new chunk is twice the size of
// the last, up to byteChunkMax, and a record may straddle two chunks, so
// every chunk but the last is full. Dropping at the front releases whole
// chunks, keeping the first full-sized one as a spare the next chunk
// reuses; the zero value is an empty log.
type ByteLog struct {
	chunks []byteChunk
	gone   int   // chunks released from the front over the log's life
	head   int64 // stream offset of the first byte held
	spare  []byte
}

type byteChunk struct {
	at int64 // stream offset of b[0]
	b  []byte
}

// ByteCursor is a position in a ByteLog that reads or overwrites the bytes
// there one at a time. It stays good while the log grows and while the
// front is dropped up to it, not past it; Truncate leaves good only the
// cursors at or before its cut.
type ByteCursor struct {
	At    int64 // stream offset of the next byte
	chunk int   // the chunk holding it, counted over the log's life
}

// Start and End are the stream offsets of the first byte held and one past
// the last.
func (l *ByteLog) Start() int64 { return l.head }

func (l *ByteLog) End() int64 {
	if len(l.chunks) == 0 {
		return l.head
	}
	c := &l.chunks[len(l.chunks)-1]
	return c.at + int64(len(c.b))
}

// Chunks returns the number of chunks held.
func (l *ByteLog) Chunks() int { return len(l.chunks) }

// Append adds p at the back.
func (l *ByteLog) Append(p []byte) {
	for len(p) > 0 {
		last := len(l.chunks) - 1
		if last < 0 || len(l.chunks[last].b) == cap(l.chunks[last].b) {
			l.grow()
			last++
		}
		c := &l.chunks[last]
		k := min(len(p), cap(c.b)-len(c.b))
		c.b = append(c.b, p[:k]...)
		p = p[k:]
	}
}

func (l *ByteLog) grow() {
	at, size := l.End(), byteChunkMin
	if n := len(l.chunks); n > 0 {
		size = min(2*cap(l.chunks[n-1].b), byteChunkMax)
	}
	b := l.spare
	if b == nil || size < byteChunkMax {
		b = make([]byte, 0, size)
	} else {
		l.spare = nil
	}
	l.chunks = append(l.chunks, byteChunk{at, b})
}

// CursorAt returns a cursor at stream offset at, which must be held or End.
func (l *ByteLog) CursorAt(at int64) ByteCursor {
	if at < l.head || at > l.End() {
		panic("sim: ByteLog.CursorAt out of range")
	}
	lo, hi := 0, len(l.chunks)-1 // the last chunk starting at or before at
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.chunks[mid].at <= at {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return ByteCursor{At: at, chunk: l.gone + lo}
}

// locate returns the chunk holding c's byte and the byte's index in it.
func (l *ByteLog) locate(c *ByteCursor) ([]byte, int) {
	if c.At < l.head || c.At >= l.End() {
		panic("sim: ByteLog cursor out of range")
	}
	c.chunk = max(c.chunk, l.gone) // its chunk ended at c.At and was dropped
	ch := &l.chunks[c.chunk-l.gone]
	if i := c.At - ch.at; i < int64(len(ch.b)) {
		return ch.b, int(i)
	}
	c.chunk++
	return l.chunks[c.chunk-l.gone].b, 0
}

// Next returns the byte at c and advances c past it.
func (l *ByteLog) Next(c *ByteCursor) byte {
	b, i := l.locate(c)
	c.At++
	return b[i]
}

// Uvarint decodes the unsigned varint at c and advances c past it.
func (l *ByteLog) Uvarint(c *ByteCursor) (v uint64) {
	for s := 0; ; s += 7 {
		b := l.Next(c)
		if v |= uint64(b&0x7f) << s; b < 0x80 {
			return v
		}
	}
}

// Overwrite writes p over the held bytes from c on and advances c past
// them; it never grows the log.
func (l *ByteLog) Overwrite(c *ByteCursor, p []byte) {
	for _, x := range p {
		b, i := l.locate(c)
		b[i] = x
		c.At++
	}
}

// DropFront drops every byte before stream offset at. Of the chunks nothing
// in is held any more, the first full-sized one becomes the spare if there
// is none and the rest are released; the last chunk stays.
func (l *ByteLog) DropFront(at int64) {
	if at < l.head || at > l.End() {
		panic("sim: ByteLog.DropFront out of range")
	}
	l.head = at
	k := 0
	for k < len(l.chunks)-1 && l.chunks[k].at+int64(len(l.chunks[k].b)) <= at {
		if l.spare == nil && cap(l.chunks[k].b) == byteChunkMax {
			l.spare = l.chunks[k].b[:0]
		}
		k++
	}
	if k == 0 {
		return
	}
	n := copy(l.chunks, l.chunks[k:])
	clear(l.chunks[n:])
	l.chunks = l.chunks[:n]
	l.gone += k
}

// Truncate drops every byte at and after stream offset at. A chunk left
// empty is released — the first full-sized one to become the spare if there
// is none — and the first chunk stays.
func (l *ByteLog) Truncate(at int64) {
	if at < l.head || at > l.End() {
		panic("sim: ByteLog.Truncate out of range")
	}
	for n := len(l.chunks) - 1; n >= 0; n-- {
		c := &l.chunks[n]
		if c.at < at || n == 0 {
			c.b = c.b[:max(at-c.at, 0)]
			break
		}
		if l.spare == nil && cap(c.b) == byteChunkMax {
			l.spare = c.b[:0]
		}
		l.chunks[n] = byteChunk{}
		l.chunks = l.chunks[:n]
	}
}
