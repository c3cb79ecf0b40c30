package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/rejoin"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/tcprep"
)

// scheduleRejoin books a re-integration attempt on dead's partition after
// the repair delay: the repaired partition joins the rejoin queue, and
// the pump starts it when no other resync is running. Stale bookings —
// another failover changed the recording side, or the slot was already
// refilled — are dropped, matching the old pair logic.
func (sys *System) scheduleRejoin(surv, dead *Replica) {
	if !sys.Cfg.Rejoin || len(sys.launches) == 0 {
		return
	}
	sys.Sim.Schedule(sys.Cfg.RejoinDelay, func() {
		if sys.active != surv || !surv.Kernel.Alive() {
			return
		}
		if sys.slotFilled(dead.partIdx) {
			return
		}
		sys.rejoinQ = append(sys.rejoinQ, dead)
		sys.pumpRejoin()
	})
}

// pumpRejoin starts the next queued re-integration. Resyncs are
// serialized — one checkpoint transfer and catch-up replay at a time —
// so a multi-slot outage (a contested election retires several backups
// at once) refills the set one replica per cycle.
func (sys *System) pumpRejoin() {
	if sys.resync == nil {
		sys.startNextRejoin(nil)
	}
}

// startNextRejoin starts re-integrating the first queued partition that
// still needs a backup — or fallback when none is queued — and reports
// whether it started one. A dead recording side (possibly not yet
// detected) is nothing to resync against: the queue is left for the
// failover that follows.
func (sys *System) startNextRejoin(fallback *Replica) bool {
	if sys.active == nil || !sys.active.Kernel.Alive() {
		return false
	}
	next := fallback
	for len(sys.rejoinQ) > 0 {
		dead := sys.rejoinQ[0]
		sys.rejoinQ = sys.rejoinQ[1:]
		if !sys.slotFilled(dead.partIdx) {
			next = dead
			break
		}
	}
	if next == nil || sys.slotFilled(next.partIdx) {
		return false
	}
	sys.startRejoin(sys.active, next)
	return true
}

// Rejoin triggers backup re-integration immediately instead of waiting
// for the scheduled attempt. It returns ErrResyncInProgress while a
// resync is running, nil when already replicated, ErrFailed when nothing
// is left to rejoin to, and an ErrDegraded-wrapped error when there is
// nothing to re-integrate or the recording side is dead.
func (sys *System) Rejoin() error {
	switch sys.State() {
	case StateReplicated:
		return nil
	case StateResyncing:
		return ErrResyncInProgress
	case StateFailed:
		return ErrFailed
	}
	if !sys.Cfg.Rejoin {
		return fmt.Errorf("%w: rejoin disabled by configuration", ErrDegraded)
	}
	if len(sys.launches) == 0 {
		return fmt.Errorf("%w: nothing recorded to re-integrate", ErrDegraded)
	}
	if !sys.startNextRejoin(sys.lastDead) {
		return fmt.Errorf("%w: no freed partition to re-integrate, or the recording side is dead", ErrDegraded)
	}
	return nil
}

// startRejoin re-integrates a fresh backup on the dead replica's freed
// partition (the tentpole §3.7 extension): boot a replacement kernel,
// create a generation-suffixed ring set, seed the new namespace from the
// survivor's latest checkpoint — the last verified epoch cut, or the
// genesis checkpoint when none was ever cut — atomically with snapshotting
// the logical TCP state and attaching the delta and catch-up streams (that
// atomicity is what makes snapshot-plus-deltas gapless), bulk-transfer the
// checkpoint, replay the log retained after it as catch-up while the
// survivor keeps recording, verify the replay against the survivor's
// cursors at the attach frontier, and flip back to replicated mode when
// the backup has caught up. Runs in scheduler context; every step here is
// non-blocking, so the cut is one atomic instant.
func (sys *System) startRejoin(surv, dead *Replica) {
	sys.generation++
	gen := sys.generation
	sys.resyncStartAt = sys.Sim.Now()

	freed := dead.Kernel.Partition()
	bk, err := kernel.Boot(freed, kernel.Config{
		Name:   fmt.Sprintf("backup.g%d", gen),
		Params: sys.Cfg.Kernel,
		Cores:  sys.Cfg.coresFor(dead.partIdx),
	})
	if err != nil {
		sys.rejoinErr = fmt.Errorf("core: rejoin generation %d: %w", gen, err)
		sys.scLife.EmitNote(obs.ResyncStart, 0, int64(gen), 0, "boot failed: "+err.Error())
		return
	}
	bk.Instrument(sys.Obs.Scope(fmt.Sprintf("gen%d/kernel", gen)))
	sys.Machine.OnFault(func(f hw.Fault) { bk.HandleFault(f) })
	sys.hookKernel(bk)

	// Generation-suffixed rings: the names keep their channel prefixes so
	// chaos rules armed on a class apply to every generation's rings.
	sfx := fmt.Sprintf(".g%d", gen)
	srcS, srcB := surv.partIdx, dead.partIdx
	log := sys.Fabric.NewRing("ftns.log"+sfx, srcS, sys.Cfg.Replication.LogRingBytes)
	acks := sys.Fabric.NewRing("ftns.acks"+sfx, srcB, 256<<10)
	tcpSync := sys.Fabric.NewRing("tcprep.sync"+sfx, srcS, 8<<20)
	bulk := sys.Fabric.NewRing("rejoin.bulk"+sfx, srcS, 1<<20)
	hbSB := sys.Fabric.NewRing("hb.s2b"+sfx, srcS, 16<<10)
	hbBS := sys.Fabric.NewRing("hb.b2s"+sfx, srcB, 16<<10)
	for _, r := range []*shm.Ring{log, acks, tcpSync, bulk, hbSB, hbBS} {
		r.Instrument(sys.Obs.Scope("shm/" + r.Name()))
		if sys.injector != nil {
			sys.injector.ArmRing(r)
		}
	}

	bns := replication.NewSecondary("ftns"+sfx, bk, sys.Cfg.Replication, log, acks)
	bns.Instrument(sys.Obs.Scope(fmt.Sprintf("gen%d/ftns", gen)), sys.Obs.Registry())
	sys.Obs.Registry().Gauge(fmt.Sprintf("replay.lag%s", sfx), func() int64 {
		return int64(surv.NS.SeqGlobal()) - int64(bns.ReplayHead())
	})
	// DeferPull: the backup must seed the checkpoint before consuming
	// deltas; the sync ring buffers them meanwhile.
	bsec := tcprep.NewSecondary(bk, tcpSync, tcprep.SecondaryConfig{DeferPull: true})
	// The seed: the survivor's latest checkpoint, which is also the latest
	// one the new backup holds until it verifies a later boundary itself.
	cp := surv.lastCP
	rep := &Replica{
		Kernel:  bk,
		NS:      bns,
		Sockets: tcprep.NewSockets(bns, nil, nil, bsec),
		TCPSync: bsec,
		partIdx: dead.partIdx,
		scope:   fmt.Sprintf("gen%d/ftns", gen),
		linkIdx: -1,
		lastCP:  cp,
	}
	sys.resync = rep
	sys.passives = append(sys.passives, rep)

	if sys.Cfg.Epochs.Enabled {
		// The new backup verifies every epoch boundary cut from here on,
		// including one that lands mid-resync (its marker reaches it
		// through the catch-up stream).
		bns.OnEpoch(sys.epochVerifier(rep))
	}

	// --- the atomic cut -------------------------------------------------
	// The seed coordinates, the fresh TCP snapshot plus delta-ring attach,
	// the frontier cut and the catch-up link creation all land in this one
	// scheduler instant: no byte and no tuple can land in both a snapshot
	// and a stream, or in neither, and the catch-up stream starts exactly
	// at the checkpoint's log index (the recorder's retained history
	// begins at the checkpoint's own marker — at index 0 for genesis). The
	// TCP state is snapshotted fresh — input bytes never enter the det
	// log, so the seed carries none — and the transfer copy is sealed over
	// the filled snapshot.
	tx := *cp
	if surv.TCPPrim != nil {
		tx.TCP = surv.TCPPrim.SnapshotState()
		surv.TCPPrim.AttachRing(tcpSync)
	}
	tx.Seal()
	frontier := rejoin.Cut(surv.NS)
	bns.SeedCheckpoint(cp.Epoch, cp.SeqGlobal, cp.Sent, cp.Objs, envMap(cp.Env))
	bns.ResumeFrom(cp.Threads, cp.NextFTPid)
	rep.linkIdx = surv.NS.AddReplica(log, acks, func() { sys.resyncComplete(gen, rep) })
	// --------------------------------------------------------------------
	sys.scLife.EmitNote(obs.CheckpointCut, 0, int64(cp.SeqGlobal), int64(tx.Bytes()),
		fmt.Sprintf("g%d: epoch %d seed, %d apps, %d conns", gen, cp.Epoch, len(tx.Apps), len(tx.TCP.Conns)))

	surv.Kernel.Spawn("rejoin-send"+sfx, func(t *kernel.Task) {
		rejoin.Send(t, bulk, &tx)
	})
	bk.Spawn("rejoin-recv"+sfx, func(t *kernel.Task) {
		rcp, err := rejoin.Recv(t, bulk)
		if err != nil {
			sys.abortRejoin(gen, bk, fmt.Errorf("core: rejoin bulk transfer: %w", err))
			return
		}
		bsec.Seed(rcp.TCP)
		// Replay regenerates output starting at the seed, not at byte zero:
		// align the logical out-buffer bases and this replica's own send
		// cursors with the checkpoint before any section replays.
		bsec.SeedOutBase(rcp.Sends)
		rep.Sockets.SeedSent(rcp.Sends)
		bsec.StartPull()
		// Cross-check the catch-up replay against the survivor's cursors
		// exactly when the replay head reaches the attach frontier.
		bns.OnReplayHead(frontier.SeqGlobal, func() {
			if verr := frontier.VerifyReplay(bns); verr != nil {
				sys.abortRejoin(gen, bk, verr)
			}
		})
		// Start every recorded launch from its snapshot (from scratch when
		// the seed has none). Each thread adopts its checkpointed identity
		// through the ResumeFrom pins, and the replay carries it from the
		// seed to the live frontier.
		for _, l := range sys.launches {
			sys.startOn(rep, l, rcp.Apps)
		}
	})

	// Failure detection for the new pairing, armed before catch-up so a
	// mid-resync death on either side is handled: survivor death promotes
	// the half-synced backup, backup death degrades and reschedules.
	rep.Detector, surv.Detector = sys.watch(rep, surv, hbBS, hbSB,
		fmt.Sprintf("gen%d/detector-backup", gen), fmt.Sprintf("gen%d/detector-active", gen))

	sys.setState(StateResyncing)
	sys.scLife.EmitNote(obs.ResyncStart, 0, int64(gen), int64(frontier.SeqGlobal),
		fmt.Sprintf("g%d: backup on partition %d", gen, dead.partIdx))
}

// envMap converts a checkpoint's sorted env entries back to the map form
// the namespace seeds from.
func envMap(entries []rejoin.EnvEntry) map[string]string {
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		m[e.Key] = e.Value
	}
	return m
}

// abortRejoin records a failed re-integration and kills the half-built
// backup kernel; its detector notices and the normal backup-death path
// (degrade, reschedule) cleans up.
func (sys *System) abortRejoin(gen int, bk *kernel.Kernel, err error) {
	if gen != sys.generation {
		return
	}
	sys.rejoinErr = err
	sys.scLife.EmitNote(obs.ResyncDone, 0, int64(gen), -1, "aborted: "+err.Error())
	bk.Panic("rejoin aborted: "+err.Error(), nil)
}

// resyncComplete flips the pair back to replicated mode; it runs from the
// recorder's catch-up loop the moment the backup's link drains, which is
// the quiesced det-section boundary the flip is defined at.
func (sys *System) resyncComplete(gen int, rep *Replica) {
	if gen != sys.generation || sys.resync != rep {
		return
	}
	sys.resync = nil
	sys.scLife.EmitNote(obs.CatchupDone, 0, int64(gen), int64(sys.active.NS.SeqGlobal()),
		fmt.Sprintf("g%d caught up", gen))
	if len(sys.livePassives()) >= sys.Cfg.Replicas-1 {
		sys.setState(StateReplicated)
	} else {
		sys.setState(StateDegraded)
	}
	sys.scLife.EmitNote(obs.ResyncDone, 0, int64(gen),
		int64(sys.Sim.Now().Sub(sys.resyncStartAt)), fmt.Sprintf("g%d replicated", gen))
	sys.pumpRejoin()
}
