package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// The output-commit rule (§3.5), read off a run's trace. A recording side
// traces an output it holds for the quorum's receipt as an OutputHeld at
// its watermark, the messages it has recorded, and its release as an
// OutputReleased; tcprep traces a segment its sync barrier holds as an
// OutputHeld at the updates it has enqueued. A BatchFlush or SyncFlush
// carries the watermark published so far.

// CommitSafe checks the rule's safety on a strict run: no output leaves
// before the quorum's receipt covers every det tuple and sync update
// recorded before it. Each hold's watermark covers what its stream had
// published by then, and — while the replica set is the one deployed and
// every backup is in the quorum — each release follows a receipt reaching
// its watermark: a delivery on one of its log rings, paired by name as
// causal.Build pairs them ("primary/ftns" with "shm/ftns.log…"), or an
// ack. It scans the trace rather than build the graph, which would cost
// more than every other clause together.
func CommitSafe(sys *core.System) error {
	if !sys.Cfg.Replication.StrictOutputCommit {
		return nil
	}
	q := sys.Cfg.Replication.CommitQuorum
	whole := q <= 0 || q >= sys.Cfg.Replicas-1
	published, delivered := map[string]int64{}, map[string]int64{}
	acked := int64(0)
	for _, e := range sys.Obs.Events() {
		switch e.Kind {
		case obs.BatchFlush, obs.SyncFlush:
			published[e.Scope] = max(published[e.Scope], e.Seq)
		case obs.RingDeliver:
			delivered[e.Scope] = max(delivered[e.Scope], e.Seq)
		case obs.AckSend:
			acked = max(acked, e.Seq)
		case obs.OutputHeld:
			if p := published[e.Scope]; p > e.Seq {
				return fmt.Errorf("%s held output at %v at watermark %d, short of the %d it had published", e.Scope, e.At, e.Seq, p)
			}
		case obs.OutputReleased:
			ring := e.Scope[strings.LastIndexByte(e.Scope, '/')+1:] + ".log"
			received := acked
			for name, d := range delivered {
				if strings.Contains(name, ring) {
					received = max(received, d)
				}
			}
			if whole && received < e.Seq {
				return fmt.Errorf("%s released output at %v at watermark %d before a backup's receipt reached it", e.Scope, e.At, e.Seq)
			}
		default:
			whole = whole && !changesSet(e.Kind)
		}
	}
	return nil
}

// CommitLive checks the rule's liveness: no release waits for a flush
// timer. A hold has everything it covers recorded, and forces its stream's
// flush (flushForCommit), so it becomes releasable at once: its watermark
// is published in the hold's instant, and the release waits for transfer
// and receipt alone. A flush interval is 50 µs by default, so a forgotten
// forced flush delays a release by less than one; what the clause bounds
// at zero is the publication's delay after the hold. A publication that
// waited for room in a full ring (a SpanReserve in between) is exempt, as
// is a hold whose stream died before publishing it.
func CommitLive(sys *core.System) error {
	type hold struct {
		e        obs.Event
		reserved bool
	}
	published := map[string]int64{}
	holds := map[string][]hold{}
	var errs []error
	for _, e := range sys.Obs.Events() {
		switch e.Kind {
		case obs.OutputHeld:
			if published[e.Scope] < e.Seq {
				holds[e.Scope] = append(holds[e.Scope], hold{e: e})
			}
		case obs.SpanReserve:
			for _, hs := range holds {
				for i := range hs {
					hs[i].reserved = true
				}
			}
		case obs.BatchFlush, obs.SyncFlush:
			published[e.Scope] = max(published[e.Scope], e.Seq)
			hs := holds[e.Scope]
			n := 0
			for ; n < len(hs) && hs[n].e.Seq <= e.Seq; n++ {
				if h := hs[n]; !h.reserved && e.At > h.e.At {
					errs = append(errs, fmt.Errorf("%s held output at %v at watermark %d, published only at %v: the release waited %v for a flush timer",
						e.Scope, h.e.At, h.e.Seq, e.At, e.At.Sub(h.e.At)))
				}
			}
			holds[e.Scope] = hs[n:]
		}
	}
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}

// changesSet reports whether an event of kind k changes the replica set
// from the one deployed, after which a receipt may come from a ring not
// named for its recorder, or none may be due.
func changesSet(k obs.Kind) bool {
	return slices.Contains([]obs.Kind{obs.KernelPanic, obs.Promote, obs.ResyncStart, obs.ReplicaRetire, obs.Unreplicated, obs.QuorumLost, obs.Election}, k)
}
