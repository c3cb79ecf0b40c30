package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/replication"
)

// Replica-set membership: the active recording side plus a slot-ordered
// list of passive backups. The two-replica deployment is the degenerate
// case (one passive); every helper here reduces to the old pair logic
// there.

// Backups returns the current backup replicas (replaying or resyncing),
// in join order. The slice is a copy.
func (sys *System) Backups() []*Replica {
	return append([]*Replica(nil), sys.passives...)
}

// Watermarks returns the active recorder's per-backup receipt watermark
// vector (nil while no side is recording).
func (sys *System) Watermarks() []replication.ReplicaWatermark {
	if sys.active == nil {
		return nil
	}
	return sys.active.NS.Watermarks()
}

// ReplayDebt is the worst replay debt a backup reported over the run — its
// busiest det shard's unreplayed tuples times ReplayDispatchCost, what a
// promotion then would have owed — folding in the active recorder's reports.
func (sys *System) ReplayDebt() time.Duration {
	for _, w := range sys.Watermarks() {
		sys.backlog = max(sys.backlog, w.Backlog)
	}
	return time.Duration(sys.backlog) * sys.Cfg.Replication.ReplayDispatchCost
}

// isPassive reports whether rep is a current backup.
func (sys *System) isPassive(rep *Replica) bool { return slices.Contains(sys.passives, rep) }

// removePassive takes rep out of the backup list, reporting whether it
// was there (false = a stale notification about an already-handled
// replica).
func (sys *System) removePassive(rep *Replica) bool {
	i := slices.Index(sys.passives, rep)
	if i >= 0 {
		sys.passives = slices.Delete(sys.passives, i, i+1)
	}
	return i >= 0
}

// members returns the live replicas: the active side, then the backups.
func (sys *System) members() []*Replica {
	return slices.DeleteFunc(append([]*Replica{sys.active}, sys.passives...),
		func(r *Replica) bool { return r == nil || !r.Kernel.Alive() })
}

// livePassives returns the backups whose kernels are still alive.
func (sys *System) livePassives() []*Replica {
	return slices.DeleteFunc(slices.Clone(sys.passives), func(p *Replica) bool { return !p.Kernel.Alive() })
}

// slotFilled reports whether a live replica currently occupies the given
// partition slot (so its freed partition cannot host a rejoin yet).
func (sys *System) slotFilled(idx int) bool {
	return slices.ContainsFunc(sys.members(), func(r *Replica) bool { return r.partIdx == idx })
}

// elect ranks the live backups by receipt watermark — everything a
// backup has ingested is in its memory and survives promotion, so the
// highest Processed() count loses the least recorded work — and returns
// the winner (ties to the lowest slot) plus the losers in join order.
func (sys *System) elect() (winner *Replica, losers []*Replica) {
	for _, p := range sys.livePassives() {
		if winner == nil || p.NS.Processed() > winner.NS.Processed() ||
			p.NS.Processed() == winner.NS.Processed() && p.partIdx < winner.partIdx {
			winner = p
		}
	}
	if winner == nil {
		return nil, nil
	}
	return winner, slices.DeleteFunc(sys.livePassives(), func(p *Replica) bool { return p == winner })
}

// Retire removes a live backup from the replica set — the old half of a
// rolling replacement: its links are dropped, its kernel shut down, and a
// replacement re-integrates on the freed partition from a fresh checkpoint
// after the repair delay. Retiring the active replica is an error;
// retiring a backup mid-resync returns ErrResyncInProgress; a replica
// already retired (or never a member) returns ErrReplicaRetired.
func (sys *System) Retire(rep *Replica) error {
	if rep == nil || rep.retired {
		return ErrReplicaRetired
	}
	if rep == sys.active {
		return fmt.Errorf("core: cannot retire the active replica (fail over first)")
	}
	if sys.resync == rep {
		return ErrResyncInProgress
	}
	if !sys.isPassive(rep) {
		return ErrReplicaRetired
	}
	rep.retired = true
	sys.removePassive(rep)
	sys.lastDead = rep
	sys.scLife.EmitNote(obs.ReplicaRetire, 0, int64(rep.partIdx), int64(rep.NS.Processed()),
		"rolling replacement")
	sys.dropBackup(sys.active, rep)
	if rep.Kernel.Alive() {
		rep.Kernel.Panic("retired: rolling replacement", nil)
	}
	sys.scheduleRejoin(sys.active, rep)
	return nil
}
