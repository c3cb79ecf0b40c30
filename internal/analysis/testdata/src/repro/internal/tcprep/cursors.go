// Package tcprep is the nondet fixture for a map-order leak on a cold
// path: the send cursors of every replicated connection are folded into
// each epoch checkpoint's digest, which only an epoch cut computes. A
// cursor list built in map order can differ across replicas, yet
// removing the real snapshot's sort fails no test, golden or chaos run
// (DESIGN.md §10): nondet is the only check that sees it.
package tcprep

import "sort"

// SendCursor mirrors the real per-connection cumulative sent count.
type SendCursor struct {
	ID   uint64
	Sent uint64
}

// Sockets mirrors the real replicated socket table.
type Sockets struct{ sent map[uint64]uint64 }

// SendCursors is the real snapshot: collect, then sort by socket ID.
func (s *Sockets) SendCursors() []SendCursor {
	cur := make([]SendCursor, 0, len(s.sent))
	for id, n := range s.sent {
		cur = append(cur, SendCursor{ID: id, Sent: n})
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].ID < cur[j].ID })
	return cur
}

// unsortedCursors is the planted bug: the same snapshot without its sort.
func (s *Sockets) unsortedCursors() []SendCursor {
	cur := make([]SendCursor, 0, len(s.sent))
	for id, n := range s.sent { // want "via append"
		cur = append(cur, SendCursor{ID: id, Sent: n})
	}
	return cur
}
