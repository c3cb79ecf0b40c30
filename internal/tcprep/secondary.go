package tcprep

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// Secondary maintains the logical TCP states on the backup replica and
// promotes them into a live stack at failover (§3.7).
type Secondary struct {
	kern *kernel.Kernel
	sync *shm.Ring

	table  *ConnTable
	bySync map[uint64]*LogicalConn // the primary's sync ids, as announced or seeded
	bindQ  sim.WaitQueue

	// The puller is a stackless task (pull). q holds the updates it took
	// off the ring and has not applied: it pays for the oldest before
	// popping it, so a promotion that stops it mid-batch applies them.
	puller       *kernel.Task
	pullK, paidK func()
	q            sim.Log[shm.Message]
	promoted     bool
	cost         time.Duration // Costs.SyncUpdate, paid per update

	// Stats.
	DataBytes int64 // input bytes synced
	Updates   int64 // sync messages applied
	Batches   int64 // vectored deliveries drained (more than one update at once)
}

// NewSecondary creates the sync-state maintainer on the secondary kernel;
// costs prices its pull loop (SyncUpdate). StartPull starts it.
func NewSecondary(k *kernel.Kernel, sync *shm.Ring, costs Costs) *Secondary {
	return &Secondary{
		kern:   k,
		sync:   sync,
		table:  newConnTable(),
		bySync: make(map[uint64]*LogicalConn),
		cost:   costs.SyncUpdate,
	}
}

// StartPull starts consuming the sync ring: a booting backup's at once, a
// rejoining backup's once it has applied the checkpoint's state snapshot
// (Seed), the ring buffering the deltas that queue meanwhile. It is a no-op
// if the pull loop is already running or the maintainer has been promoted.
func (s *Secondary) StartPull() {
	if s.puller != nil || s.promoted {
		return
	}
	s.pullK, s.paidK = s.pull, s.paid
	s.puller = s.kern.SpawnStackless("tcprep-sync", s.pullK)
}

// Conns reports the number of connection records held, one per incarnation.
func (s *Secondary) Conns() int { return len(s.table.conns) }

// Table returns the backup's logical TCP state. A promoted backup hands it
// to the detached primary that keeps recording (NewPrimary's history).
func (s *Secondary) Table() *ConnTable { return s.table }

// pull is the puller's loop: it takes every delivered update off the ring
// at once, pays Costs.SyncUpdate for each in turn and applies it (paid), and waits
// for the ring when it has applied them all.
func (s *Secondary) pull() {
	if s.q.Len() == 0 {
		if s.sync.Len() > 1 {
			s.Batches++
		}
		for m, ok := s.sync.TryRecv(); ok; m, ok = s.sync.TryRecv() {
			s.q.Append(m)
		}
		if s.q.Len() == 0 {
			s.puller.WaitThen(s.sync, s.pullK)
			return
		}
	}
	s.puller.ComputeThen(s.cost, s.paidK)
}

// paid applies the update the puller has paid for, the oldest it took off
// the ring, and pulls on.
func (s *Secondary) paid() {
	s.apply(s.q.PopFront())
	s.pull()
}

// apply resolves an update's connection and applies it to the table, then
// does what only a backup does: wake replayed reads and binds, trim
// regenerated output.
func (s *Secondary) apply(m shm.Message) {
	s.Updates++
	switch m.Kind {
	case syncConnMeta:
		s.bySync[m.W[0]] = s.table.establish(*m.Ref.(*ConnKey), m.W[1], m.W[2])
		s.bindQ.WakeAll(0)
		return
	case syncBind:
		s.table.bind(m.W[0], s.table.latest(*m.Ref.(*ConnKey)))
		s.bindQ.WakeAll(0)
		return
	}
	// Every id was announced first: by its syncConnMeta, ahead on the same
	// FIFO ring, or by the snapshot that seeded this replica.
	lc := s.bySync[m.W[0]]
	switch m.Kind {
	case syncDataIn:
		s.table.ackOut(lc, m.W[1]) // an absorbed ack-out's watermark, or 0
		lc.applyTrim()
		s.table.dataIn(lc, m.Data)
		s.DataBytes += int64(len(m.Data))
		lc.dataQ.WakeAll(0)
	case syncAckOut:
		s.table.ackOut(lc, m.W[1])
		lc.applyTrim()
	case syncPeerFin:
		s.table.peerFinned(lc)
		lc.dataQ.WakeAll(0)
	case syncGone:
		delete(s.bySync, m.W[0])
		s.table.reaped(lc)
	}
}

// applyTrim discards regenerated output up to the acknowledged watermark.
// The watermark can run ahead of the replay (a rejoining backup's does), so
// the trim is re-applied after every appendOut until outBase catches up.
func (lc *LogicalConn) applyTrim() {
	if lc.acked <= lc.outBase {
		return
	}
	n := min(lc.acked-lc.outBase, uint64(lc.out.Len()))
	lc.out.Discard(int(n))
	lc.outBase += n
}

// bindWait blocks until the connection bound to the replicated socket ID is
// known, then returns its logical state.
func (s *Secondary) bindWait(t *kernel.Task, id uint64) *LogicalConn {
	for s.table.binds[id] == nil {
		s.bindQ.Wait(t.Proc())
	}
	return s.table.binds[id]
}

// read consumes exactly n synced input bytes, blocking until the sync
// stream has delivered them (the primary recorded the read after they
// arrived), and lends them like tcpstack's Recv. They stay in the stream.
func (lc *LogicalConn) read(t *kernel.Task, n int) []byte {
	for lc.in.Len()-lc.inRead < n {
		lc.dataQ.Wait(t.Proc())
	}
	lc.inRead += n
	return lc.lent.LendTape(&lc.in, lc.inRead-n, lc.inRead)
}

// appendOut accumulates replica-regenerated output bytes, discarding any
// prefix the client has already acknowledged.
func (lc *LogicalConn) appendOut(data []byte) {
	lc.out.Append(data)
	lc.applyTrim()
}

// Promote drains the sync ring and materializes the logical connections in
// the given stack, returning the restored connections. A reaped record is
// restored only while the replayed application has not closed it and no
// newer incarnation holds its four-tuple. Call after the replication log has
// been replayed to the stable point and the NIC driver is loaded.
func (s *Secondary) Promote(stack *tcpstack.Stack) ([]*tcpstack.Conn, error) {
	if s.promoted {
		return nil, fmt.Errorf("tcprep: already promoted")
	}
	s.promoted = true
	if s.puller != nil {
		s.puller.Kill()
	}
	for _, m := range append(s.q.AppendTo(nil), s.sync.Drain()...) {
		s.apply(m)
	}
	var restored []*tcpstack.Conn
	for _, lc := range s.table.conns {
		if lc.gone && lc.appClosed || s.table.byKey[lc.key] != lc {
			continue
		}
		snap := tcpstack.ConnSnapshot{
			LocalPort: lc.key.LocalPort,
			Remote:    tcpstack.Addr{Host: lc.key.RemoteHost, Port: lc.key.RemotePort},
			ISS:       lc.iss,
			IRS:       lc.irs,
			SndUna:    lc.iss + 1 + lc.outBase,
			SndData:   lc.out.Bytes(), // Restore copies it
			RcvNxt:    lc.irs + 1 + uint64(lc.in.Len()),
			RcvData:   lc.in.Clone(lc.inRead),
			PeerFin:   lc.peerFin,
		}
		if lc.peerFin {
			snap.RcvNxt++ // the FIN consumed one sequence number
		}
		c, err := stack.Restore(snap)
		if err != nil {
			return restored, fmt.Errorf("tcprep: promote %v: %w", lc.key, err)
		}
		lc.live = c
		c.Kick()
		restored = append(restored, c)
	}
	return restored, nil
}

// Seed applies a rejoin checkpoint's logical TCP state. It must run before
// StartPull: the snapshot covers everything up to the checkpoint cut, and
// the sync ring (attached at the same instant on the primary) carries
// exactly the deltas after it, so the two compose without overlap.
func (s *Secondary) Seed(snap StateSnap) {
	for i, lc := range s.table.seed(snap) {
		s.DataBytes += int64(lc.in.Len())
		if id := snap.Conns[i].Sync; id != 0 {
			s.bySync[id] = lc
		}
	}
	s.bindQ.WakeAll(0)
}

// SeedOutBase aligns each seeded connection's out-buffer base with the
// epoch checkpoint's send cursors, where the delta replay's first
// regenerated output byte sits. Call between Seed (which installs the
// binds) and the start of delta replay. An acked watermark past a cursor
// is re-applied by applyTrim as replay catches up; one behind it came with
// the bytes up to it (ConnSnap.Out).
func (s *Secondary) SeedOutBase(cur []SendCursor) {
	for _, c := range cur {
		if lc := s.table.binds[c.ID]; lc != nil && lc.out.Len() == 0 && c.Sent > lc.outBase {
			lc.outBase = c.Sent
		}
	}
}
