package replication

import (
	"repro/internal/shm"
	"repro/internal/sim"
)

func walkedBytes(hist *sim.Log[shm.Message]) (b int64) {
	for i := 0; i < hist.Len(); i++ {
		b += int64(hist.At(i).Size)
	}
	return b
}

// RetainedSums returns, for each engine the namespace holds, the running
// retained-bytes sum beside the sum walked over the retained history.
func (ns *Namespace) RetainedSums() (recRunning, recWalked, repRunning, repWalked int64) {
	if ns.rec != nil {
		recRunning, recWalked = ns.rec.hist.bytes, walkedBytes(&ns.rec.hist.msgs)
	}
	if ns.rep != nil {
		repRunning, repWalked = ns.rep.hist.bytes, walkedBytes(&ns.rep.hist.msgs)
	}
	return
}

// PlantDivergence counts one replay divergence on a replaying namespace.
func (ns *Namespace) PlantDivergence() { ns.rep.diverge("planted") }

// ReceiverArmed reports whether a sharded backup's log-ring receiver event
// is armed: a delivery has landed that it has not drained yet.
func (ns *Namespace) ReceiverArmed() bool { return ns.rep.logRx.Armed() }

// LaneDispatching reports whether a lane's worker is paying the dispatch
// cost of its head message.
func (ns *Namespace) LaneDispatching() bool {
	for _, ln := range ns.rep.lanes {
		if ln.owner.Computing() {
			return true
		}
	}
	return false
}

// ReplayWindowBase returns the log index the backup's retained window
// starts at: the Sent of the last epoch marker it truncated at.
func (ns *Namespace) ReplayWindowBase() uint64 { return ns.rep.hist.base }
