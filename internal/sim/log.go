package sim

// logChunk is the number of elements in one chunk of a Log.
const logChunk = 512

// Log is a sequence that grows at the back and is dropped at the front — a
// retained history, or a FIFO whose backlog may grow for a whole run. It is
// kept in fixed-size chunks, so appending never moves an element that is
// already there (a slice that only grows copies every element several times
// over, and holds the old and the new array at once while it does). Only the
// first chunk of a short log is grown, by doubling, up to the chunk size.
//
// A chunk released at the front is kept as the log's one spare and reused by
// the next Append that needs a chunk, and a log drained to empty keeps its
// last chunk: a queue cycling at constant depth allocates nothing, and a
// growing backlog allocates one chunk per logChunk elements. The zero value
// is an empty log.
type Log[T any] struct {
	chunks [][]T // every chunk but the last holds logChunk elements
	head   int   // elements of chunks[0] already dropped
	n      int
	spare  []T // a released chunk, empty, every slot zero
}

// Len returns the number of elements held.
func (l *Log[T]) Len() int { return l.n }

// At returns the i-th oldest element held. The pointer is good until the
// element is dropped, except while the log is one chunk of fewer than
// logChunk elements: the next Append may grow that chunk, moving what it
// holds.
func (l *Log[T]) At(i int) *T {
	if i < 0 || i >= l.n {
		panic("sim: Log index out of range")
	}
	i += l.head
	return &l.chunks[i/logChunk][i%logChunk]
}

// AppendTo appends every element held to dst, oldest first.
func (l *Log[T]) AppendTo(dst []T) []T {
	if cap(dst)-len(dst) < l.n {
		grown := make([]T, len(dst), len(dst)+l.n)
		copy(grown, dst)
		dst = grown
	}
	for i, c := range l.chunks {
		if i == 0 {
			c = c[l.head:]
		}
		dst = append(dst, c...)
	}
	return dst
}

// Append adds x at the back.
func (l *Log[T]) Append(x T) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == logChunk {
		var c []T
		switch {
		case l.spare != nil:
			c, l.spare = l.spare, nil
		case last < 0:
			c = make([]T, 0, 8)
		default:
			c = make([]T, 0, logChunk)
		}
		l.chunks = append(l.chunks, c)
		last++
	} else if c := l.chunks[last]; len(c) == cap(c) {
		grown := make([]T, len(c), min(2*cap(c), logChunk))
		copy(grown, c)
		l.chunks[last] = grown
	}
	l.chunks[last] = append(l.chunks[last], x)
	l.n++
}

// PopFront removes and returns the oldest element.
func (l *Log[T]) PopFront() T {
	x := *l.At(0)
	l.DropFront(1)
	return x
}

// DropFront drops the n oldest elements. Dropped slots are zeroed; of the
// chunks nothing in is held any more, the first becomes the spare if there
// is none and the rest are released, and the last chunk stays.
func (l *Log[T]) DropFront(n int) {
	if n < 0 || n > l.n {
		panic("sim: Log.DropFront out of range")
	}
	l.n -= n
	emptied := 0
	for n > 0 {
		c := l.chunks[emptied]
		k := min(n, len(c)-l.head)
		clear(c[l.head : l.head+k])
		l.head += k
		n -= k
		if l.head < len(c) {
			break
		}
		l.head = 0
		if emptied == len(l.chunks)-1 {
			l.chunks[emptied] = c[:0]
			break
		}
		emptied++
	}
	if emptied == 0 {
		return
	}
	if l.spare == nil {
		l.spare = l.chunks[0][:0]
	}
	k := copy(l.chunks, l.chunks[emptied:])
	clear(l.chunks[k:])
	l.chunks = l.chunks[:k]
}
