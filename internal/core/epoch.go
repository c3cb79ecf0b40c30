package core

// Epoch checkpointing (the ISSUE 10 tentpole): the recording side cuts an
// incremental checkpoint of the full replicated software stack every
// epoch and streams its marker through the ordered det log, so the cut
// lands at an exact log watermark on every replica. Each backup verifies
// the marker's digest against its own replay-reconstructed state at that
// exact frontier, truncates its retained tuple log at the boundary, and
// acks; once a commit quorum of backups has verified an epoch the primary
// truncates too. Log retention and rejoin time are then bounded by one
// epoch of history instead of growing with uptime, and the cut itself
// uses iterative pre-copy so its stop-the-world pause is bounded by the
// workload's dirty rate — not by state size.

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/rejoin"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// startCutter spawns the epoch cutter on a recording replica's kernel.
// It exits by itself when the replica stops being the active recording
// side (failover starts a fresh cutter on the promoted survivor).
func (sys *System) startCutter(rep *Replica) {
	rep.Kernel.Spawn("epoch-cutter", func(t *kernel.Task) { sys.cutterLoop(t, rep) })
}

func (sys *System) cutterLoop(t *kernel.Task, rep *Replica) {
	ec := sys.Cfg.Epochs
	// Interval-only cuts sleep a whole epoch at a time; a tuple-count
	// trigger needs a faster poll to notice the threshold between
	// interval boundaries.
	poll := ec.Interval
	if ec.EveryTuples > 0 {
		p := ec.Interval / 8
		if p <= 0 {
			p = 25 * time.Millisecond
		}
		if poll <= 0 || p < poll {
			poll = p
		}
	}
	lastSeq := rep.NS.SeqGlobal()
	lastAt := t.Now()
	for {
		t.Proc().SetBackground(true) // between cuts: a finished run may end
		t.Sleep(poll)
		t.Proc().SetBackground(false) // a cut is foreground work
		if sys.active != rep {
			return
		}
		if !rep.NS.Recording() {
			continue
		}
		// Nothing recorded since the last cut: an identical checkpoint
		// buys nothing, and skipping keeps a freshly seeded backup from
		// meeting a marker at its own seed frontier before its apps have
		// been restored.
		if rep.NS.SeqGlobal() == lastSeq {
			lastAt = t.Now()
			continue
		}
		due := ec.Interval > 0 && t.Now().Sub(lastAt) >= ec.Interval
		if !due && ec.EveryTuples > 0 && rep.NS.SeqGlobal()-lastSeq >= uint64(ec.EveryTuples) {
			due = true
		}
		if !due {
			continue
		}
		sys.cutEpoch(t, rep)
		lastSeq = rep.NS.SeqGlobal()
		lastAt = t.Now()
	}
}

// cutEpoch takes one epoch checkpoint: converging pre-copy passes while
// the workload runs, then a final stop-the-world bounded by the residual
// dirty delta — quiesce at a section boundary, copy the delta, cut, and
// emit the marker at the exact log watermark.
func (sys *System) cutEpoch(t *kernel.Task, rep *Replica) {
	ec := sys.Cfg.Epochs
	pc := &rejoin.PreCopy{
		Sources:     sys.precopySources(rep),
		PerByte:     ec.PerByteCopyCost,
		MaxPasses:   precopyPasses,
		TargetDirty: precopyTargetDirty,
	}
	finalDirty, passes := pc.Run(t)

	release := rep.NS.Quiesce(t)
	t0 := t.Now()
	t.Busy(time.Duration(finalDirty) * ec.PerByteCopyCost)
	sys.epoch++
	_, sent := rep.NS.LogWatermark()
	cp := cutReplica(rejoin.Cut(rep.NS), rep, sys.epoch, sent)
	sys.pendingCuts[cp.Epoch] = cp
	rep.NS.EmitEpoch(t, replication.EpochMark{
		Epoch:     cp.Epoch,
		SeqGlobal: cp.SeqGlobal,
		Sent:      cp.Sent,
		Digest:    cp.Sum,
		Payload:   cp,
	}, epochMarkBytes+cp.Bytes())
	pause := t.Now().Sub(t0)
	release()

	sys.hPause.Observe(int64(pause))
	note := ""
	for _, ps := range passes {
		note += fmt.Sprintf("p%d %dB>%dB; ", ps.Pass, ps.Copied, ps.Dirtied)
	}
	note += fmt.Sprintf("stw %dB", finalDirty)
	sys.scEpoch.EmitNote(obs.EpochCut, 0, int64(cp.Epoch), int64(pause), note)
}

// The pre-copy bounds: at most precopyPasses passes, stopping once the
// residual dirty estimate is at most precopyTargetDirty bytes — the pinned
// constant that bounds the final pause independent of state size.
const precopyPasses, precopyTargetDirty = 4, 4 << 10

// epochMarkBytes is the marker's own four words (epoch, Seq_global, log
// index, digest), accounted on top of the checkpoint it carries.
const epochMarkBytes = 32

// cutReplica completes cp, a cut of the replica's namespace, as the sealed
// checkpoint of an epoch boundary: app snapshots in launch order and the
// send cursors; the TCP history stays empty (a rejoin snapshots it fresh).
// The recording side's cut is a checkpoint of its own, which replicas
// retain; every backup recomputes it in its cutter's scratch, so the two
// digests agree exactly when replay has not diverged.
func cutReplica(cp *rejoin.Checkpoint, rep *Replica, epoch, sent uint64) *rejoin.Checkpoint {
	cp.Epoch, cp.Sent = epoch, sent
	for _, a := range rep.apps {
		cp.Apps = append(cp.Apps, rejoin.AppSnap{Name: a.name, Data: a.state.Snapshot()})
	}
	cp.Sends = rep.Sockets.SendCursors(cp.Sends)
	cp.Seal()
	return cp
}

// precopySources lists, into the slice the replica reuses, its state for
// the pre-copy engine: the FT-namespace cursor/env state (each det section
// dirties ~32 bytes of cursor vector), the logical TCP connection table and
// every restorable app's snapshot, each a Source type, not a closure.
func (sys *System) precopySources(rep *Replica) []rejoin.Source {
	srcs := append(rep.sources[:0], nsSource{rep})
	if rep.TCPPrim != nil {
		srcs = append(srcs, tableSource{rep.TCPPrim.Table()})
	}
	for i := range rep.apps {
		srcs = append(srcs, &rep.apps[i])
	}
	rep.sources = srcs
	return srcs
}

type nsSource struct{ rep *Replica }
type tableSource struct{ *tcprep.ConnTable }

func (s nsSource) TotalBytes() int         { return s.rep.cutter.Cut(s.rep.NS).Bytes() }
func (s nsSource) DirtyCounter() uint64    { return s.rep.NS.SeqGlobal() * 32 }
func (s tableSource) TotalBytes() int      { return s.Footprint() }
func (s tableSource) DirtyCounter() uint64 { return s.Dirtied() }
func (a *appInst) TotalBytes() int         { return len(a.state.Snapshot()) }
func (a *appInst) DirtyCounter() uint64    { return a.state.Dirtied() }

// epochVerifier is the replica-side boundary check, run with replay
// quiesced at the marker's exact frontier: recompute the checkpoint
// digest from the local replayed state and compare. A match retains the
// marker's checkpoint for this replica's own future promotion or rejoin
// service; a mismatch is divergence and aborts the replica.
func (sys *System) epochVerifier(rep *Replica) func(replication.EpochMark) bool {
	return func(mark replication.EpochMark) bool {
		cp, ok := mark.Payload.(*rejoin.Checkpoint)
		if !ok || cutReplica(rep.cutter.Cut(rep.NS), rep, mark.Epoch, mark.Sent).Sum != mark.Digest {
			return false
		}
		rep.lastCP = cp
		return true
	}
}

// wireEpochQuorum installs the recording-side quorum callback: when an
// epoch reaches its verification quorum (and the recorder has truncated
// its history at it), the cut graduates from pending to this replica's
// latest checkpoint — the one rejoin seeds fresh backups from.
func (sys *System) wireEpochQuorum(rep *Replica) {
	rep.NS.OnEpochQuorum(func(epoch uint64) {
		if cp := sys.pendingCuts[epoch]; cp != nil {
			rep.lastCP = cp
		}
		for e := range sys.pendingCuts {
			if e <= epoch {
				delete(sys.pendingCuts, e)
			}
		}
	})
}
