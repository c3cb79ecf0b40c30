package sim

// PopFront removes the oldest element of the FIFO q[head:], whose owner
// pushes with append(q, x), and returns the queue's new slice and head. The
// popped slot is zeroed, and the live elements slide back to the start of
// the array once the dead prefix is at least as long as they are, so the
// array is reused instead of regrown (q = q[1:] loses its front for good)
// and an element is moved O(1) times amortised.
func PopFront[T any](q []T, head int) ([]T, int) {
	return DropFront(q, head, 1)
}

// DropFront is PopFront for the n oldest elements at once.
func DropFront[T any](q []T, head, n int) ([]T, int) {
	clear(q[head : head+n])
	if head += n; 2*head >= len(q) {
		n := copy(q, q[head:])
		clear(q[n:])
		return q[:n], 0
	}
	return q, head
}
