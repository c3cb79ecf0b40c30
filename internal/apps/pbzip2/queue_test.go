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
				if b := q.pop(th, -1); b.seq != popped {
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

// TestWantedBlockTakesSpareSlot: a full queue still admits the block its
// consumer waits for, into the spare slot, without parking its pusher;
// blocks still come out in the order they went in.
func TestWantedBlockTakesSpareSlot(t *testing.T) {
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	base.LaunchApp("queue", nil, func(th *replication.Thread, _ *tcprep.Sockets) {
		q := newQueue(th.Lib(), 2)
		blocks := []block{{seq: 0}, {seq: 1}, {seq: 2}, {seq: 3}}
		q.push(th, &blocks[1])
		q.push(th, &blocks[2])
		got = append(got, q.pop(th, 0).seq) // the consumer now waits for block 0
		q.push(th, &blocks[3])              // full again
		q.push(th, &blocks[0])              // the wanted block: the spare slot
		for range 3 {
			got = append(got, q.pop(th, -1).seq)
		}
	})
	if err := base.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("popped %v, want %v (a pusher that parks never returns here)", got, want)
	}
}
