package sim

import (
	"math/rand"
	"testing"
)

// TestPopFrontKeepsOrderAndArray drives append/PopFront against a plain
// slice queue: same elements in the same order, popped slots zeroed (a
// waiter's callback must not stay reachable), and an array that stops
// growing once it holds twice the peak backlog — q = q[1:] regrows forever.
func TestPopFrontKeepsOrderAndArray(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q []*int
	head := 0
	var model []*int
	for step := 0; step < 200000; step++ {
		if backlog := len(q) - head; backlog < 40 && (backlog == 0 || rng.Intn(2) == 0) {
			v := new(int)
			*v = step
			q, model = append(q, v), append(model, v)
			continue
		}
		got := q[head]
		q, head = PopFront(q, head)
		if got != model[0] {
			t.Fatalf("step %d: popped %d, want %d", step, *got, *model[0])
		}
		model = model[1:]
		if len(q)-head != len(model) {
			t.Fatalf("step %d: %d queued, want %d", step, len(q)-head, len(model))
		}
		for i := 0; i < head; i++ {
			if q[i] != nil {
				t.Fatalf("step %d: popped slot %d still holds its element", step, i)
			}
		}
	}
	if cap(q) > 256 {
		t.Errorf("backlog never exceeded 40, array grew to %d", cap(q))
	}
}
