package tcprep

import (
	"slices"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// Primary wires a primary kernel's TCP stack for replication: it is the
// stack's output-commit egress gate and ingress backpressure hook, and its
// callbacks stream logical-state updates to every backup, over one sync ring
// each (syncLink), buffered and flushed on its own so a slow backup's full
// ring never blocks the others. Updates coalesce between output commits, up
// to the det log's BatchTuples, into the newest pending entry of their
// connection (coalesce), and ship as one vectored transfer.
//
// An outgoing segment is released only once (a) every update enqueued
// before it is on every LIVE ring (ring messages survive the primary, §3.5)
// — the sync barrier, so whichever backup wins a failover election owns the
// logical TCP state of every byte the client has seen — and (b) the det-log
// output-commit rule holds (Namespace.OnStable: all-backup receipt, the
// configured quorum, or at once under relaxed commit). Both watermarks only
// grow, so segments pass both in the order they entered: one FIFO holds
// them, each with the sync watermark it waits for, a cursor marks those
// past the barrier (handed to OnStable), and a count the stable ones.
// While replication is active one pacer event sends the stable ones, each
// at the start of its per-packet bookkeeping cost. A pure ACK still held
// when a later segment of its connection enters is absorbed: dropped at no
// cost, because the later segment carries a cumulative ACK at least as high
// and a newer window.
type Primary struct {
	ns    *replication.Namespace
	stack *tcpstack.Stack
	sim   *sim.Simulation
	links []*syncLink
	batch int // updates per vectored transfer: the det log's BatchTuples
	cost  Costs

	// table is the logical TCP state, updated from the same callbacks that
	// stream deltas, so a checkpoint cut from it plus the delta stream after
	// AttachRing reconstructs the complete state.
	table    *ConnTable
	lastSync uint64 // the last sync id drawn (idOf)

	out shm.Outboxes // the links' outboxes, in link order, and their spill server

	enqueued uint64 // logical updates accepted for syncing

	held     sim.Log[heldSeg]   // outgoing segments, oldest first
	base     uint64             // the entry index of held's first segment
	passed   int                // the oldest held segments past the sync barrier
	stable   int                // the oldest of those that are stable
	pacer    sim.Event          // sends them
	busy     sim.Time           // the pacer pays for its last send until then
	acks     map[ConnKey]uint64 // each connection's held pure ACK, by entry index
	absorbed int64              // pure ACKs dropped
	stabled  func()             // p.onStable, bound once

	// SyncFlushes counts vectored transfers pushed onto the sync rings.
	SyncFlushes int64
	// SyncCoalesced counts updates merged into an already-pending entry
	// (they ride along without their own ring slot).
	SyncCoalesced int64

	sc         *obs.Scope
	hSyncBatch *obs.Histogram
}

// syncLink is one backup's leg of the logical-state delta stream: the
// outbox in front of its sync ring, holding the updates buffered toward it,
// and the watermark of updates it has on its ring. synced is measured in
// the primary-wide enqueued space — a link attached mid-run starts at the
// then-current enqueued count, since everything earlier reaches the backup
// through the checkpoint snapshot, not the delta stream.
type syncLink struct {
	shm.Outbox
	synced uint64
}

// heldSeg is an outgoing segment (nil once absorbed) and the sync
// watermark it waits for: the updates enqueued when it entered.
type heldSeg struct {
	seg    *tcpstack.Segment
	synced uint64
}

// Costs is tcprep's part of the calibrated cost model (core.Config.TCPRep).
// The gate's costs apply only while replication is active: a promoted
// replica sends at native speed.
type Costs struct {
	// PerSegment + PerByte×wire size is the primary's serial bookkeeping per
	// output packet (Netfilter egress hook, output-commit queue, copy). It
	// holds bulk transfer at ~85% of Ubuntu's (§4.4; Fig. 8 reads 83%) and
	// bounds request rates (§4.2).
	PerSegment, PerByte time.Duration
	// SyncUpdate is the backup's CPU cost to apply one sync update, the
	// serial TCP-state maintenance that makes network I/O synchronization
	// costlier than Pthreads schedule replication (§4.2).
	SyncUpdate time.Duration
}

// DefaultCosts returns the calibrated costs; their sources are on the fields.
func DefaultCosts() Costs {
	return Costs{PerSegment: 20 * time.Microsecond, PerByte: 9 * time.Nanosecond, SyncUpdate: 25 * time.Microsecond}
}

// NewPrimary attaches replication to the given stack. syncs is one sync
// ring per backup, in the same link order as the det-log fan-out
// (replica-set slot order), so link indices agree with the recorder's and
// DropRing can be driven from the same failure notification. With no rings
// the primary is detached — a promoted or degraded kernel recording without
// a backup: callbacks maintain the connection table but nothing is streamed
// and output is released at native speed, until AttachRing flips it into
// streaming mode when a rejoining backup is ready. costs prices the egress
// gate (PerSegment, PerByte). history is the connection table to continue:
// a promoted secondary's (Secondary.Table), so the next rejoin can be
// checkpointed from it; nil starts an empty one. The delta stream batches
// by the namespace's det-log policy (replication.Config.BatchTuples,
// FlushInterval): one flush policy for both streams.
func NewPrimary(ns *replication.Namespace, stack *tcpstack.Stack, syncs []*shm.Ring, costs Costs, history *ConnTable) *Primary {
	if history == nil {
		history = newConnTable()
	}
	p := &Primary{ns: ns, stack: stack, sim: ns.Kernel().Sim(), batch: ns.Config().BatchTuples, cost: costs,
		table: history, acks: make(map[ConnKey]uint64)}
	p.out.Init(ns.Kernel().Domain(), ns.Config().FlushInterval)
	for _, sync := range syncs {
		p.AttachRing(sync)
	}
	// The egress gate, ingress backpressure, and state-update callbacks.
	p.stabled = p.onStable
	p.pacer.Init(ns.Kernel().Domain(), p.release)
	stack.SetEgress(p)
	stack.SetIngress(p.ingress)
	stack.OnOpen, stack.OnDataIn, stack.OnAckIn = p.onEstablished, p.onDataIn, p.onAckIn
	stack.OnPeerFin, stack.OnReaped = p.onPeerFin, p.onReaped
	ns.Kernel().Spawn("tcprep-spill", func(t *kernel.Task) { p.out.Serve(t.Proc()) })
	return p
}

// minSynced is the sync watermark every live link has reached — the
// barrier cursor. With no live links it is vacuously the enqueued count.
func (p *Primary) minSynced() uint64 {
	synced := p.enqueued
	for _, l := range p.links {
		if !l.Dead() {
			synced = min(synced, l.synced)
		}
	}
	return synced
}

// Streaming reports whether logical-state deltas are being streamed to at
// least one live backup.
func (p *Primary) Streaming() bool {
	return slices.ContainsFunc(p.links, func(l *syncLink) bool { return !l.Dead() })
}

// SnapshotState cuts the logical TCP half of a rejoin checkpoint from the
// connection table. The seeded backup replays from the checkpoint's send
// cursors (cut; nil for genesis), so a connection's output written before its
// cursor and not yet acknowledged is copied from its live connection. Call in
// scheduler context, atomically with AttachRing, so no update lands in both
// the snapshot and the delta stream.
func (p *Primary) SnapshotState(cut []SendCursor) StateSnap {
	snap := p.table.snapshot()
	for i, lc := range p.table.conns {
		if !lc.gone {
			snap.Conns[i].Sync = p.idOf(lc)
		}
	}
	for _, c := range cut {
		if lc := p.table.binds[c.ID]; lc != nil && lc.live != nil && c.Sent > lc.acked {
			live := lc.live.Snapshot()
			base := live.SndUna - lc.iss - 1 // SndData's stream offset
			snap.Conns[lc.at].Out = live.SndData[lc.acked-base : c.Sent-base]
		}
	}
	return snap
}

// idOf returns the connection's dense sync id, drawing one on first sight;
// onReaped forgets it. A backup learns an id from the connection's
// syncConnMeta or from the snapshot that seeded it.
func (p *Primary) idOf(lc *LogicalConn) uint64 {
	if lc.sync == 0 {
		p.lastSync++
		lc.sync = p.lastSync
	}
	return lc.sync
}

// Table returns the logical TCP state; its Footprint and Dirtied make it a
// pre-copy source for epoch checkpoints.
func (p *Primary) Table() *ConnTable { return p.table }

// AttachRing adds one backup leg to the delta stream: later updates reach
// the (re)joining backup over sync and output commits gate on its barrier
// too. The link starts at the current enqueued watermark — earlier updates
// reach the backup in the checkpoint cut in the same instant. On a detached
// primary this flips streaming back on. It returns the index for DropRing.
func (p *Primary) AttachRing(sync *shm.Ring) int {
	link := &syncLink{synced: p.enqueued}
	p.out.Attach(&link.Outbox, sync, link.TryFlush, func(n int, updates uint64) {
		link.synced += updates
		p.SyncFlushes++
		p.sc.Emit(obs.SyncFlush, 0, int64(link.synced), int64(n))
		p.hSyncBatch.Observe(int64(n))
		p.advance()
	})
	p.links = append(p.links, link)
	return len(p.links) - 1
}

// DropRing stops streaming to one dead backup's leg: its buffered updates
// are discarded, its ring drained (unblocking a spill server parked on it), and
// the barrier re-evaluated over the survivors. When the last live leg
// drops the primary degrades (native-speed release). Link indices follow
// construction/AttachRing order.
func (p *Primary) DropRing(i int) {
	if i < 0 || i >= len(p.links) || p.links[i].Dead() {
		return
	}
	if !slices.ContainsFunc(p.links, func(l *syncLink) bool { return l != p.links[i] && !l.Dead() }) {
		p.Degrade()
		return
	}
	p.kill(p.links[i])
	p.advance()
}

// kill marks a link dead: what it buffered is discarded, its watermark
// stops gating the barrier, and its ring is drained — which unblocks a
// spill server parked on it.
func (p *Primary) kill(link *syncLink) {
	link.Kill()
	link.synced = p.enqueued
}

// Instrument attaches an event scope and the sync-batch histogram (nil: off).
func (p *Primary) Instrument(sc *obs.Scope, reg *obs.Registry) {
	p.sc = sc
	p.hSyncBatch = reg.Histogram("tcprep.sync.batch", "updates")
}

// Degrade stops syncing after the last backup's death: buffered updates are
// discarded and barrier waiters released, so the primary keeps serving at
// native speed. On a primary that is not streaming it does nothing.
func (p *Primary) Degrade() {
	if !p.Streaming() {
		return
	}
	p.sc.Emit(obs.Unreplicated, 0, int64(p.enqueued), 0)
	for _, link := range p.links {
		if !link.Dead() {
			p.kill(link)
		}
	}
	p.advance()
}

// Transmit implements tcpstack.EgressGate.
func (p *Primary) Transmit(seg *tcpstack.Segment) {
	if !p.ns.Recording() || !p.Streaming() {
		// Not replicating (or recording detached, with no backup to
		// outrun): native-speed release, no bookkeeping cost.
		seg.Send()
		return
	}
	p.hold(seg)
}

// hold queues an outgoing segment behind the sync barrier, forcing a flush
// first (output commit must never wait out a FlushInterval); a segment the
// flush leaves uncovered, which a full ring makes, is traced as an
// OutputHeld.
func (p *Primary) hold(seg *tcpstack.Segment) {
	if !seg.Probe {
		// Any later segment that acknowledges supersedes the held pure ACK,
		// but a SYN or an RST may start a new connection on the four-tuple.
		key := segKey(seg)
		if i, ok := p.acks[key]; ok {
			if seg.Flags.Has(tcpstack.FlagACK) && seg.Flags&(tcpstack.FlagSYN|tcpstack.FlagRST) == 0 {
				ack := p.held.At(int(i - p.base))
				ack.seg.Drop()
				ack.seg = nil
				p.absorbed++
			}
			delete(p.acks, key)
		}
		if seg.PureAck() {
			p.acks[key] = p.base + uint64(p.held.Len())
		}
	}
	p.flushForCommit()
	p.held.Append(heldSeg{seg: seg, synced: p.enqueued})
	if p.minSynced() < p.enqueued {
		p.sc.Emit(obs.OutputHeld, 0, int64(p.enqueued), 0)
	}
	p.advance()
}

func segKey(seg *tcpstack.Segment) ConnKey {
	return ConnKey{LocalPort: seg.Src.Port, RemoteHost: seg.Dst.Host, RemotePort: seg.Dst.Port}
}

// advance moves the barrier cursor over every held segment the sync
// watermark now covers, handing each to the det log's output commit.
func (p *Primary) advance() {
	synced := p.minSynced()
	for p.passed < p.held.Len() && p.held.At(p.passed).synced <= synced {
		p.passed++
		p.ns.OnStable(p.stabled)
	}
}

func (p *Primary) onStable() {
	p.stable++
	p.release()
}

// release sends the stable segments the pacer is free for — an absorbed
// one is free — and arms the pacer for the rest.
func (p *Primary) release() {
	for p.stable > 0 && p.sim.Now() >= p.busy {
		seg := p.held.PopFront().seg
		p.passed--
		p.stable--
		p.base++
		if seg == nil {
			continue
		}
		if seg.PureAck() && p.acks[segKey(seg)] == p.base-1 {
			delete(p.acks, segKey(seg)) // sent: nothing left to absorb
		}
		p.busy = p.sim.Now().Add(p.cost.PerSegment + time.Duration(seg.WireSize())*p.cost.PerByte)
		seg.Send()
	}
	if p.stable > 0 && !p.pacer.Armed() {
		p.pacer.Reset(p.busy.Sub(p.sim.Now()))
	}
}

// ingress is the Netfilter-style backpressure hook: data segments that the
// sync path could not hold are dropped *before* the TCP layer, so the stack
// never acknowledges input a backup might miss; the client simply
// retransmits. Buffered-but-unflushed bytes count against the budget so
// every pending buffer stays bounded by its ring's capacity; the tightest
// live link governs.
func (p *Primary) ingress(seg *tcpstack.Segment) bool {
	if len(seg.Data) == 0 {
		return true
	}
	need := int64(len(seg.Data)) + 128
	for _, link := range p.links {
		if !link.Dead() && link.Ring().Free()-link.Bytes() < need {
			return false
		}
	}
	return true
}

// trySync accepts a state update without blocking (callbacks run in segment
// context): it lands in each live link's pending buffer, merging with the
// newest pending entry when both describe the same stream, and a full
// buffer is flushed. An update a full ring refuses stays buffered behind
// the sync barrier — no output the client can see outruns it — and
// Primary.ingress back-pressure keeps the ring from filling to begin with.
func (p *Primary) trySync(m shm.Message) {
	if !p.Streaming() {
		return
	}
	p.enqueued++
	for _, link := range p.links {
		if link.Dead() || p.coalesce(link, m) {
			continue
		}
		link.Add(m)
		if link.Len() >= p.batch {
			link.TryFlush()
		}
	}
}

// coalesce merges an update into the link's newest pending entry when both
// target the same connection: data-in bytes append (one entry per input
// burst; a tape's view is capacity-limited, so the first append copies),
// ack-out watermarks replace (they are cumulative), and a data-in absorbs an
// ack-out, carrying its watermark in W[1], applied first. Only the tail is
// considered, so the ring order of updates is kept.
func (p *Primary) coalesce(link *syncLink, m shm.Message) bool {
	tail := link.Tail()
	if tail == nil || tail.W[0] != m.W[0] {
		return false
	}
	switch {
	case m.Kind == syncDataIn && tail.Kind == syncDataIn:
		tail.Data = append(tail.Data, m.Data...)
		link.Merged(len(m.Data))
	case m.Kind == syncDataIn && tail.Kind == syncAckOut:
		tail.Kind, tail.Data = syncDataIn, m.Data
		link.Merged(m.Size - tail.Size)
	case m.Kind == syncAckOut && tail.Kind == syncAckOut:
		if m.W[1] > tail.W[1] {
			tail.W[1] = m.W[1]
		}
		link.Merged(0)
	default:
		return false
	}
	p.SyncCoalesced++
	return true
}

// flushForCommit pushes every live link's pending buffer out without
// blocking; held output waits until every live leg has caught up.
func (p *Primary) flushForCommit() {
	for _, link := range p.links {
		if !link.Dead() {
			link.TryFlush()
		}
	}
}

func (p *Primary) onEstablished(c *tcpstack.Conn) {
	key := keyOf(c)
	lc := p.table.establish(key, c.ISS(), c.IRS())
	lc.live = c
	// The four-tuple crosses once per connection, as the record's own key.
	m := syncMessage(syncConnMeta, connMetaBytes, p.idOf(lc), c.ISS(), c.IRS())
	m.Ref = &lc.key
	p.trySync(m)
}

// onDataIn retains the segment's bytes and syncs the table's view of them,
// which outlives the segment and is never written again.
func (p *Primary) onDataIn(c *tcpstack.Conn, data []byte) {
	lc := p.table.latest(keyOf(c))
	m := syncMessage(syncDataIn, dataInBytes+len(data), p.idOf(lc), 0, 0)
	m.Data = p.table.dataIn(lc, data)
	p.trySync(m)
}

func (p *Primary) onAckIn(c *tcpstack.Conn, acked uint64) {
	lc := p.table.latest(keyOf(c))
	p.table.ackOut(lc, acked)
	p.trySync(syncMessage(syncAckOut, ackOutBytes, p.idOf(lc), acked, 0))
}

func (p *Primary) onPeerFin(c *tcpstack.Conn) {
	lc := p.table.latest(keyOf(c))
	p.table.peerFinned(lc)
	p.trySync(syncMessage(syncPeerFin, peerFinBytes, p.idOf(lc), 0, 0))
}

func (p *Primary) onReaped(c *tcpstack.Conn) {
	lc := p.table.latest(keyOf(c))
	p.table.reaped(lc)
	p.trySync(syncMessage(syncGone, goneBytes, p.idOf(lc), 0, 0))
	lc.sync = 0
}

// bindConn announces the det-log socket ID for an accepted connection and
// returns its record. Called from task context, so it may block on the
// rings; the bind is appended behind any pending updates and flushed
// immediately so the secondaries' bindWait is never delayed by batching.
func (p *Primary) bindConn(th *replication.Thread, id uint64, c *tcpstack.Conn) *LogicalConn {
	lc := p.table.latest(keyOf(c))
	p.table.bind(id, lc)
	if !p.Streaming() {
		return lc
	}
	// By four-tuple: a connection reaped before the accept has no sync id left.
	m := syncMessage(syncBind, bindBytes, id, 0, 0)
	m.Ref = &lc.key
	p.enqueued++
	for _, link := range p.links {
		if !link.Dead() {
			link.Add(m)
			link.Flush(th.Task().Proc())
		}
	}
	return lc
}
