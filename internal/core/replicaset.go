package core

import (
	"fmt"

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

// isPassive reports whether rep is a current backup.
func (sys *System) isPassive(rep *Replica) bool {
	for _, p := range sys.passives {
		if p == rep {
			return true
		}
	}
	return false
}

// removePassive takes rep out of the backup list, reporting whether it
// was there (false = a stale notification about an already-handled
// replica).
func (sys *System) removePassive(rep *Replica) bool {
	for i, p := range sys.passives {
		if p == rep {
			sys.passives = append(sys.passives[:i], sys.passives[i+1:]...)
			return true
		}
	}
	return false
}

// livePassives returns the backups whose kernels are still alive.
func (sys *System) livePassives() []*Replica {
	var live []*Replica
	for _, p := range sys.passives {
		if p.Kernel.Alive() {
			live = append(live, p)
		}
	}
	return live
}

// slotFilled reports whether a live replica currently occupies the given
// partition slot (so its freed partition cannot host a rejoin yet).
func (sys *System) slotFilled(idx int) bool {
	if sys.active != nil && sys.active.partIdx == idx && sys.active.Kernel.Alive() {
		return true
	}
	for _, p := range sys.passives {
		if p.partIdx == idx && p.Kernel.Alive() {
			return true
		}
	}
	return false
}

// elect ranks the live backups by receipt watermark — everything a
// backup has ingested is in its memory and survives promotion, so the
// highest Processed() count loses the least recorded work — and returns
// the winner (ties to the lowest slot) plus the losers in join order.
func (sys *System) elect() (winner *Replica, losers []*Replica) {
	for _, p := range sys.livePassives() {
		if winner == nil {
			winner = p
			continue
		}
		pw, ww := p.NS.Processed(), winner.NS.Processed()
		if pw > ww || (pw == ww && p.partIdx < winner.partIdx) {
			winner = p
		}
	}
	if winner == nil {
		return nil, nil
	}
	for _, p := range sys.livePassives() {
		if p != winner {
			losers = append(losers, p)
		}
	}
	return winner, losers
}

// Retire removes a live backup from the replica set — the old half of a
// rolling replacement: its links are dropped, its kernel shut down, and
// (with rejoin enabled) a replacement re-integrates on the freed
// partition from a fresh checkpoint after the repair delay. Retiring the
// active replica is an error; retiring a backup mid-resync returns
// ErrResyncInProgress; a replica already retired (or never a member)
// returns ErrReplicaRetired.
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
