package sim

// logChunk is the number of elements in one chunk of a Log.
const logChunk = 512

// Log is a sequence that grows at the back and is truncated at the front —
// a retained history. It is kept in fixed-size chunks, so appending never
// moves an element that is already there (a slice that only grows copies
// every element several times over, and holds the old and the new array at
// once while it does) and truncation gives whole chunks back. Only the first
// chunk of a short log is grown, by doubling, up to the chunk size. The zero
// value is an empty log.
type Log[T any] struct {
	chunks [][]T // every chunk but the last holds logChunk elements
	head   int   // elements of chunks[0] already dropped
	n      int
}

// Len returns the number of elements held.
func (l *Log[T]) Len() int { return l.n }

// At returns the i-th oldest element held; the pointer is good until the log
// is next appended to or truncated.
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
		size := logChunk
		if last < 0 {
			size = 8
		}
		l.chunks = append(l.chunks, make([]T, 0, size))
		last++
	} else if c := l.chunks[last]; len(c) == cap(c) {
		grown := make([]T, len(c), min(2*cap(c), logChunk))
		copy(grown, c)
		l.chunks[last] = grown
	}
	l.chunks[last] = append(l.chunks[last], x)
	l.n++
}

// DropFront drops the n oldest elements. Dropped slots are zeroed and a
// chunk is released as soon as nothing in it is held.
func (l *Log[T]) DropFront(n int) {
	if n < 0 || n > l.n {
		panic("sim: Log.DropFront out of range")
	}
	l.n -= n
	if l.n == 0 {
		*l = Log[T]{}
		return
	}
	end := l.head + n
	gone := end / logChunk // whole chunks released
	clear(l.chunks[gone][:end%logChunk])
	l.head = end % logChunk
	if gone > 0 {
		k := copy(l.chunks, l.chunks[gone:])
		clear(l.chunks[k:])
		l.chunks = l.chunks[:k]
	}
}
