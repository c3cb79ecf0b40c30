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

// TestLogMatchesSliceModel drives Append/DropFront/PopFront/At
// against a plain slice: same elements at the same indices, no more than two
// chunks of slack besides the spare, no dropped element left
// reachable from the log's chunks, and an empty log that keeps at most one
// chunk, every slot zero.
// A chunk released at the front is the spare the next new chunk reuses.
func TestLogMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[*int]
		var model []*int
		for step := 0; step < 20000; step++ {
			switch {
			case rng.Intn(50) == 0 && len(model) > 0:
				n := rng.Intn(len(model) + 1)
				if rng.Intn(4) == 0 {
					n = rng.Intn(min(len(model), 3*logChunk) + 1)
				}
				l.DropFront(n)
				model = model[n:]
			case rng.Intn(3) == 0 && len(model) > 0:
				if got := l.PopFront(); got != model[0] {
					t.Fatalf("seed %d step %d: PopFront = %d, want %d", seed, step, *got, *model[0])
				}
				model = model[1:]
			default:
				spare, needs := l.spare, len(l.chunks) > 0 && len(l.chunks[len(l.chunks)-1]) == logChunk
				v := new(int)
				*v = step
				l.Append(v)
				model = append(model, v)
				if last := l.chunks[len(l.chunks)-1]; needs && spare != nil && &last[:1][0] != &spare[:1][0] {
					t.Fatalf("seed %d step %d: a new chunk was allocated with a spare at hand", seed, step)
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, l.Len(), len(model))
			}
			if len(model) == 0 {
				if len(l.chunks) > 1 {
					t.Fatalf("seed %d step %d: an empty log holds %d chunks", seed, step, len(l.chunks))
				}
				for _, c := range append([][]*int{l.spare}, l.chunks...) {
					for _, p := range c[:cap(c)] {
						if p != nil {
							t.Fatalf("seed %d step %d: an empty log still holds an element", seed, step)
						}
					}
				}
				continue
			}
			for _, i := range []int{0, len(model) / 2, len(model) - 1, rng.Intn(len(model))} {
				if *l.At(i) != model[i] {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, **l.At(i), *model[i])
				}
			}
			if step%500 == 0 {
				all := l.AppendTo(make([]*int, 1, 2))[1:]
				if len(all) != len(model) || all[0] != model[0] || all[len(all)-1] != model[len(model)-1] || all[len(all)/2] != model[len(all)/2] {
					t.Fatalf("seed %d step %d: AppendTo copied %d elements, want the %d held", seed, step, len(all), len(model))
				}
			}
			for _, c := range l.chunks[len(l.chunks):cap(l.chunks)] {
				if c != nil {
					t.Fatalf("seed %d step %d: the chunk table still holds a released chunk", seed, step)
				}
			}
			if held := len(l.chunks) * logChunk; held >= len(model)+2*logChunk {
				t.Fatalf("seed %d step %d: %d slots held for %d elements", seed, step, held, len(model))
			}
			for _, p := range l.chunks[0][:l.head] {
				if p != nil {
					t.Fatalf("seed %d step %d: a dropped slot still holds its element", seed, step)
				}
			}
		}
	}
}

// TestLogAppendCopiesNothing: past its first chunk a log allocates one chunk
// per logChunk appends and nothing else.
func TestLogAppendCopiesNothing(t *testing.T) {
	var l Log[[16]uint64]
	for i := 0; i < logChunk; i++ {
		l.Append([16]uint64{})
	}
	n := testing.AllocsPerRun(10, func() {
		for i := 0; i < logChunk; i++ {
			l.Append([16]uint64{})
		}
	})
	if n > 2 { // the chunk, and now and then the chunk table
		t.Errorf("%d appends allocate %.1f times, want one chunk", logChunk, n)
	}
}
