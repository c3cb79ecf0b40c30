package pbzip2

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// TestQueueAllocatesNothing pins the block queue as a fixed ring: blocks
// come out in the order they went in while the ring's head wraps around
// its slots, and a thousand push/pop cycles allocate nothing.
func TestQueueAllocatesNothing(t *testing.T) {
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var failures []string
	var allocs float64
	base.LaunchApp("queue", nil, func(th *replication.Thread, _ *tcprep.Sockets) {
		q := newQueue(th.Lib(), 4)
		var blocks [3]block
		pushed, popped := 0, 0
		cycle := func() {
			for i := range blocks {
				blocks[i].seq = pushed
				q.push(th, &blocks[i])
				pushed++
			}
			for range blocks {
				if b := q.pop(th); b.seq != popped {
					failures = append(failures, fmt.Sprintf("popped block %d, want %d", b.seq, popped))
				}
				popped++
			}
		}
		allocs = testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				cycle()
			}
		})
	})
	if err := base.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range failures[:min(len(failures), 5)] {
		t.Error(f)
	}
	if allocs != 0 {
		t.Errorf("%v allocations in 1000 push/pop cycles, want 0", allocs)
	}
}
