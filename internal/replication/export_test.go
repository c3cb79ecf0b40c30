package replication

import "repro/internal/shm"

func walkedBytes(hist *logWindow) (b int64) {
	for m := range hist.all() {
		b += int64(m.Size)
	}
	return b
}

// RetainedSums returns, for each engine the namespace holds, the running
// retained-bytes sum beside the sum walked over the retained history.
func (ns *Namespace) RetainedSums() (recRunning, recWalked, repRunning, repWalked int64) {
	if ns.rec != nil {
		recRunning, recWalked = ns.rec.hist.bytes, walkedBytes(&ns.rec.hist)
	}
	if ns.rep != nil {
		repRunning, repWalked = ns.rep.hist.bytes, walkedBytes(&ns.rep.hist)
	}
	return
}

// ReplayStats returns a secondary's replayer statistics; they stay
// readable after promotion, when Stats reads the fork instead.
func (ns *Namespace) ReplayStats() Stats { return ns.rep.stats }

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

// RecordedTuples decodes the tuples of the recording engine's retained
// history in log order: the primary's recorder, or a promoted replica's fork.
func (ns *Namespace) RecordedTuples() []Tuple {
	var out []Tuple
	for m := range ns.rec.hist.all() {
		if m.Kind == msgTuple {
			out = append(out, tupleOf(m))
		}
	}
	return out
}

// Seq returns the thread's deterministic-section sequence number.
func (th *Thread) Seq() uint64 { return th.seq }

// LiveBackups returns the number of live, caught-up backup links on a
// recording namespace.
func (ns *Namespace) LiveBackups() int {
	live, _ := ns.rec.backups()
	return live
}

// QuorumNeed returns the number of backup receipts the output-commit rule
// currently requires on a recording namespace.
func (ns *Namespace) QuorumNeed() int { return ns.rec.quorumNeed() }

// ReplayRetained returns what a secondary's replayer retains, which
// promotion hands to the fork.
func (ns *Namespace) ReplayRetained() (tuples int, bytes int64) {
	return ns.rep.hist.n, ns.rep.hist.bytes
}

// RetainedChunks returns the number of byte chunks the namespace's retained
// window holds.
func (ns *Namespace) RetainedChunks() int { return ns.retained().buf.Chunks() }

// TupleOf decodes a log-ring message: the tuple it carries, and false for
// the environment and epoch markers.
func TupleOf(m shm.Message) (Tuple, bool) { return tupleOf(m), m.Kind == msgTuple }

// RecordWindowBase returns the log index the recording engine's retained
// history starts at.
func (ns *Namespace) RecordWindowBase() uint64 { return ns.rec.hist.base }
