package pthread

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/kernel"
)

// LockOrderError is a cycle in a library's lock order: each lock in Cycle
// was held by some task while it took the next. It is lockdep's report
// (https://docs.kernel.org/locking/lockdep-design.html): the graph keeps
// every "held → taken" edge a run has shown, so a cycle is reported whether
// or not its orders ever overlapped, and so whether or not this schedule
// deadlocked. A task re-taking a lock it holds is a one-lock cycle.
type LockOrderError struct {
	Cycle []uint64 // lock ids (Mutex.ID, RWLock.ID), the first repeated last
	Task  string   // the task whose acquisition closed the cycle
}

func (e *LockOrderError) Error() string {
	ids := make([]string, len(e.Cycle))
	for i, id := range e.Cycle {
		ids[i] = fmt.Sprint(id)
	}
	return fmt.Sprintf("pthread: lock-order cycle %s, closed by task %q: a schedule that overlaps its orders deadlocks",
		strings.Join(ids, " -> "), e.Task)
}

// lockOrder is a library's lock-order recorder. held is every (task, lock)
// pair held now — a lock a task is queued for counts, as it can take
// nothing else until granted — scanned for the acquiring task, so a warm
// acquisition allocates nothing. The edge map is made at the first edge,
// and a known edge costs one lookup. It charges no virtual time.
type lockOrder struct {
	held    []heldLock
	edges   map[[2]uint64]bool
	next    map[uint64][]uint64 // each lock's successors, for the cycle search
	cycles  []*LockOrderError
	onCycle func(*LockOrderError)
}

type heldLock struct {
	t  *kernel.Task
	id uint64
}

// take records t taking lock id, which joins t's held set: an edge from
// every lock t holds, unless it is a successful try, which never waits.
func (o *lockOrder) take(t *kernel.Task, id uint64, try bool) {
	if !try {
		for _, h := range o.held {
			if h.t == t {
				o.edge(t, h.id, id)
			}
		}
	}
	o.held = append(o.held, heldLock{t, id})
}

// release records t letting lock id go. The held set is unordered, so the
// last pair fills the gap.
func (o *lockOrder) release(t *kernel.Task, id uint64) {
	if i := slices.Index(o.held, heldLock{t, id}); i >= 0 {
		last := len(o.held) - 1
		o.held[i], o.held[last] = o.held[last], heldLock{}
		o.held = o.held[:last]
	}
}

// edge adds from → to, reporting the cycle it closes if it is new.
func (o *lockOrder) edge(t *kernel.Task, from, to uint64) {
	e := [2]uint64{from, to}
	if o.edges[e] {
		return
	}
	if o.edges == nil {
		o.edges, o.next = make(map[[2]uint64]bool), make(map[uint64][]uint64)
	}
	o.edges[e] = true
	o.next[from] = append(o.next[from], to)
	cycle := o.path(to, from, []uint64{from}, map[uint64]bool{})
	if cycle == nil {
		return
	}
	err := &LockOrderError{Cycle: cycle, Task: t.Name()}
	o.cycles = append(o.cycles, err)
	if o.onCycle != nil {
		o.onCycle(err)
	}
}

// path returns prefix extended by a path of edges from a to b, or nil,
// searching each lock once: cycles already reported stay in the graph.
func (o *lockOrder) path(a, b uint64, prefix []uint64, seen map[uint64]bool) []uint64 {
	prefix = append(prefix, a)
	if a == b {
		return prefix
	}
	if seen[a] {
		return nil
	}
	seen[a] = true
	for _, n := range o.next[a] {
		if p := o.path(n, b, prefix, seen); p != nil {
			return p
		}
	}
	return nil
}

// LockCycles returns the lock-order cycles the library recorded, in the
// order they closed: each once, however often its edges recur.
func (l *Lib) LockCycles() []*LockOrderError { return l.order.cycles }

// OnLockCycle sets fn to run as each lock-order cycle is recorded.
func (l *Lib) OnLockCycle(fn func(*LockOrderError)) { l.order.onCycle = fn }
