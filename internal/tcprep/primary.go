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

// Primary wires a primary kernel's TCP stack for replication: it installs
// the output-commit egress gate (stabilityGate), the ingress backpressure
// hook, and the event callbacks that stream logical-state updates to every
// backup.
//
// The delta stream fans out over one sync ring per backup (syncLink), each
// buffered and flushed on its own, so a slow backup's full ring never blocks
// the others. Output waits until every LIVE link has its updates on its
// ring: the stream rides shared memory with no acknowledgement round trip,
// so covering every live backup costs no extra latency in the common case,
// and whichever backup wins a failover election owns the logical TCP state
// of every byte the client has seen.
//
// Updates are coalesced between output commits, up to
// SyncConfig.BatchUpdates of them, into the newest pending entry of their
// connection (coalesce), and ship as one vectored ring transfer. Every
// outgoing segment passes a sync barrier that forces a flush and waits until
// all previously enqueued updates are on every live ring: buffered updates
// live in private memory and die with the primary, ring messages survive in
// shared memory (§3.5).
type Primary struct {
	ns    *replication.Namespace
	stack *tcpstack.Stack
	gate  *stabilityGate
	links []*syncLink
	cfg   SyncConfig

	// table is the logical TCP state, updated from the same callbacks that
	// stream deltas, so a checkpoint cut from it plus the delta stream after
	// AttachRing reconstructs the complete state.
	table *ConnTable

	// ids names every connection the stack still holds by a dense sync id,
	// drawn on first sight, forgotten at reap. A backup learns an id from
	// the connection's syncConnMeta or from the snapshot that seeded it.
	ids      map[ConnKey]uint64
	lastSync uint64

	out shm.Outboxes // the links' outboxes, in link order, and their spill server

	enqueued uint64              // logical updates accepted for syncing
	barrierQ sim.Log[syncWaiter] // output segments waiting for the sync watermark, oldest first

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

// syncWaiter is an output segment waiting for the sync watermark.
type syncWaiter struct {
	watermark uint64
	fn        func()
}

// SyncConfig tunes logical-state delta batching on the tcprep.sync ring.
type SyncConfig struct {
	// BatchUpdates coalesces up to N updates per vectored transfer (1 and
	// below: a batch of one, every update sent as it is produced).
	BatchUpdates int
	// FlushInterval bounds how long a partially filled batch may sit
	// buffered when no output commit forces it out sooner (0 selects the
	// default's).
	FlushInterval time.Duration
}

// DefaultSyncConfig returns the calibrated sync batching policy.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{BatchUpdates: 8, FlushInterval: 50 * time.Microsecond}
}

// GateConfig models the primary's per-packet replication bookkeeping cost:
// every output packet traverses the Netfilter egress hook and the
// output-commit queue, paying a fixed per-packet cost plus a per-byte copy
// cost. This serial path keeps FT-Linux's bulk transfer at ~85% of Ubuntu's
// (§4.4) and bounds request rates (§4.2); past quick-ACK mode the stack's
// delayed ACKs let a request's ACK ride its reply through it. It applies only
// while replication is active: a promoted replica sends at native speed.
type GateConfig struct {
	PerSegment time.Duration
	PerByte    time.Duration
}

// DefaultGateConfig returns the calibrated egress cost model.
func DefaultGateConfig() GateConfig {
	return GateConfig{PerSegment: 20 * time.Microsecond, PerByte: 9 * time.Nanosecond}
}

// PrimaryConfig wires the primary side of TCP-stack replication.
type PrimaryConfig struct {
	// Syncs is one sync ring per backup, in the same link order as the
	// det-log fan-out (replica-set slot order), so link indices agree with
	// the recorder's and DropRing can be driven from the same failure
	// notification. With no rings the primary is detached — a promoted or
	// degraded kernel recording without a backup: callbacks maintain the
	// connection table but nothing is streamed and output is released at
	// native speed, until AttachRing flips it into streaming mode when a
	// rejoining backup is ready.
	Syncs []*shm.Ring
	// Gate is the egress cost model; zero selects DefaultGateConfig.
	Gate GateConfig
	// Sync is the delta batching policy; zero selects DefaultSyncConfig.
	Sync SyncConfig
	// History is the connection table to continue: a promoted secondary's
	// (Secondary.Table), so the next rejoin can be checkpointed from it.
	// Nil starts an empty one.
	History *ConnTable
}

// NewPrimary attaches replication to the given stack.
func NewPrimary(ns *replication.Namespace, stack *tcpstack.Stack, cfg PrimaryConfig) *Primary {
	if cfg.Gate == (GateConfig{}) {
		cfg.Gate = DefaultGateConfig()
	}
	if cfg.Sync == (SyncConfig{}) {
		cfg.Sync = DefaultSyncConfig()
	}
	if cfg.Sync.BatchUpdates < 1 {
		cfg.Sync.BatchUpdates = 1
	}
	if cfg.Sync.FlushInterval <= 0 {
		cfg.Sync.FlushInterval = DefaultSyncConfig().FlushInterval
	}
	if cfg.History == nil {
		cfg.History = newConnTable()
	}
	p := &Primary{ns: ns, stack: stack, cfg: cfg.Sync, table: cfg.History, ids: make(map[ConnKey]uint64)}
	p.out.Init(ns.Kernel().Domain(), p.cfg.FlushInterval)
	for _, sync := range cfg.Syncs {
		p.AttachRing(sync)
	}
	// The egress gate, ingress backpressure, and state-update callbacks.
	g := &stabilityGate{ns: ns, prim: p, cfg: cfg.Gate, sim: ns.Kernel().Sim(), acks: make(map[ConnKey]uint64)}
	g.synced, g.stabled = g.onSynced, g.onStable
	g.pacer.Init(ns.Kernel().Domain(), g.release)
	p.gate = g
	stack.SetEgress(g)
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
// connection table. Call in scheduler context, atomically with AttachRing,
// so no update lands in both the snapshot and the delta stream.
func (p *Primary) SnapshotState() StateSnap {
	snap := p.table.snapshot()
	for i := range snap.Conns {
		if cs := &snap.Conns[i]; !cs.Gone {
			cs.Sync = p.idOf(cs.Key)
		}
	}
	return snap
}

// idOf returns the connection's sync id, drawing one on first sight.
func (p *Primary) idOf(key ConnKey) uint64 {
	id, ok := p.ids[key]
	if !ok {
		p.lastSync++
		id = p.lastSync
		p.ids[key] = id
	}
	return id
}

// Table returns the logical TCP state; its Footprint and Dirtied make it a
// pre-copy source for epoch checkpoints.
func (p *Primary) Table() *ConnTable { return p.table }

// AttachRing adds one backup leg to the delta stream: subsequent state
// updates are synced to the (re)joining backup over the given ring and
// output commits gate on its sync barrier too. The new link starts at the
// current enqueued watermark — earlier updates reach the backup through
// the checkpoint snapshot cut atomically with this call. On a detached
// (or gone-live) primary that is what flips streaming back on. It returns
// the link index for DropRing.
func (p *Primary) AttachRing(sync *shm.Ring) int {
	link := &syncLink{synced: p.enqueued}
	p.out.Attach(&link.Outbox, sync, link.TryFlush, func(n int, updates uint64) {
		link.synced += updates
		p.SyncFlushes++
		p.sc.Emit(obs.SyncFlush, 0, int64(link.synced), int64(n))
		p.hSyncBatch.Observe(int64(n))
		p.fireBarrier()
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
	p.fireBarrier()
}

// kill marks a link dead: what it buffered is discarded, its watermark
// stops gating the barrier, and its ring is drained — which unblocks a
// spill server parked on it.
func (p *Primary) kill(link *syncLink) {
	link.Kill()
	link.synced = p.enqueued
}

// Instrument attaches an event scope (sync-ring flushes, going live)
// and registers the sync-batch-size histogram. Nil arguments disable.
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
	p.fireBarrier()
}

// stabilityGate releases outgoing segments only once (a) every sync-ring
// update enqueued so far is on every live backup's ring — the sync barrier
// that keeps batching from letting output outrun the logical-state stream
// — and (b) the det-log output-commit rule is satisfied (§3.5: all-backup
// receipt, or the configured quorum; with relaxed output commit the
// namespace releases immediately). Both watermarks only grow, so segments
// turn stable in the order they entered: the gate holds them in one FIFO,
// and each callback marks the oldest not yet stable. While replication is
// active, one pacer event sends the stable ones, each at the start of its
// per-packet bookkeeping cost. A pure ACK still held when a later segment
// of its connection enters is absorbed: dropped at no cost, because the
// later segment carries a cumulative ACK at least as high and a newer window.
type stabilityGate struct {
	ns   *replication.Namespace
	prim *Primary
	cfg  GateConfig
	sim  *sim.Simulation

	held     sim.Log[*tcpstack.Segment] // oldest first; nil once absorbed
	base     uint64                     // the entry index of held's first segment
	stable   int                        // the oldest held segments that are stable
	pacer    sim.Event                  // sends them
	busy     sim.Time                   // the pacer pays for its last send until then
	acks     map[ConnKey]uint64         // each connection's held pure ACK, by entry index
	absorbed int64                      // pure ACKs dropped

	synced, stabled func() // g.onSynced, g.onStable
}

var _ tcpstack.EgressGate = (*stabilityGate)(nil)

// Transmit implements tcpstack.EgressGate.
func (g *stabilityGate) Transmit(seg *tcpstack.Segment) {
	if !g.ns.Recording() || !g.prim.Streaming() {
		// Not replicating (or recording detached, with no backup to
		// outrun): native-speed release, no bookkeeping cost.
		seg.Send()
		return
	}
	if !seg.Probe {
		// Any later segment that acknowledges supersedes the held pure ACK,
		// but a SYN or an RST may start a new connection on the four-tuple.
		key := segKey(seg)
		if i, ok := g.acks[key]; ok {
			if seg.Flags.Has(tcpstack.FlagACK) && seg.Flags&(tcpstack.FlagSYN|tcpstack.FlagRST) == 0 {
				ack := g.held.At(int(i - g.base))
				(*ack).Drop()
				*ack = nil
				g.absorbed++
			}
			delete(g.acks, key)
		}
		if seg.PureAck() {
			g.acks[key] = g.base + uint64(g.held.Len())
		}
	}
	g.held.Append(seg)
	g.prim.syncBarrier(g.synced)
}

func segKey(seg *tcpstack.Segment) ConnKey {
	return ConnKey{LocalPort: seg.Src.Port, RemoteHost: seg.Dst.Host, RemotePort: seg.Dst.Port}
}

func (g *stabilityGate) onSynced() { g.ns.OnStable(g.stabled) }

func (g *stabilityGate) onStable() {
	g.stable++
	g.release()
}

// release sends the stable segments the pacer is free for — an absorbed
// one is free — and arms the pacer for the rest.
func (g *stabilityGate) release() {
	for g.stable > 0 && g.sim.Now() >= g.busy {
		seg := g.held.PopFront()
		g.stable--
		g.base++
		if seg == nil {
			continue
		}
		if seg.PureAck() && g.acks[segKey(seg)] == g.base-1 {
			delete(g.acks, segKey(seg)) // sent: nothing left to absorb
		}
		g.busy = g.sim.Now().Add(g.cfg.PerSegment + time.Duration(seg.WireSize())*g.cfg.PerByte)
		seg.Send()
	}
	if g.stable > 0 && !g.pacer.Armed() {
		g.pacer.Reset(g.busy.Sub(g.sim.Now()))
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

// syncBarrier runs fn once every sync update enqueued so far is on every
// live ring, forcing an immediate flush (output commit must never wait out
// a FlushInterval). Runs in segment/scheduler context; fn fires inline in
// the common case where the forced flushes are admitted at once.
func (p *Primary) syncBarrier(fn func()) {
	if !p.Streaming() {
		fn()
		return
	}
	p.flushForCommit()
	if p.minSynced() >= p.enqueued {
		fn()
		return
	}
	p.barrierQ.Append(syncWaiter{watermark: p.enqueued, fn: fn})
}

func (p *Primary) fireBarrier() {
	synced := p.minSynced()
	for p.barrierQ.Len() > 0 && p.barrierQ.At(0).watermark <= synced {
		p.barrierQ.PopFront().fn()
	}
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
		if link.Len() >= p.cfg.BatchUpdates {
			link.TryFlush()
		}
	}
}

// coalesce merges an update into the link's newest pending entry when both
// target the same connection stream: data-in bytes append (one entry per
// input burst; a tape's view is capacity-limited, so the first append
// copies), ack-out watermarks replace (they are cumulative), and a data-in
// absorbs an ack-out, whose watermark it carries in its W[1], applied
// first. Only the tail entry is considered so the ring order of updates is
// preserved exactly.
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
// blocking; barrier waiters keep output held until every live leg has
// caught up.
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
	// The four-tuple crosses once per connection, as the record's own key.
	m := syncMessage(syncConnMeta, connMetaBytes, p.idOf(key), c.ISS(), c.IRS())
	m.Ref = &lc.key
	p.trySync(m)
}

// onDataIn retains the segment's bytes and syncs the table's view of them,
// which outlives the segment and is never written again.
func (p *Primary) onDataIn(c *tcpstack.Conn, data []byte) {
	key := keyOf(c)
	lc := p.table.latest(key)
	m := syncMessage(syncDataIn, dataInBytes+len(data), p.idOf(key), 0, 0)
	m.Data = p.table.dataIn(lc, data)
	p.trySync(m)
}

func (p *Primary) onAckIn(c *tcpstack.Conn, acked uint64) {
	key := keyOf(c)
	p.table.ackOut(p.table.latest(key), acked)
	p.trySync(syncMessage(syncAckOut, ackOutBytes, p.idOf(key), acked, 0))
}

func (p *Primary) onPeerFin(c *tcpstack.Conn) {
	key := keyOf(c)
	p.table.peerFinned(p.table.latest(key))
	p.trySync(syncMessage(syncPeerFin, peerFinBytes, p.idOf(key), 0, 0))
}

func (p *Primary) onReaped(c *tcpstack.Conn) {
	key := keyOf(c)
	if lc := p.table.byKey[key]; lc != nil {
		p.table.reaped(lc)
	}
	p.trySync(syncMessage(syncGone, goneBytes, p.idOf(key), 0, 0))
	delete(p.ids, key)
}

// bindConn announces the det-log socket ID for an accepted connection.
// Called from task context, so it may block on the rings; the bind is
// appended behind any pending updates and flushed immediately so the
// secondaries' bindWait is never delayed by batching.
func (p *Primary) bindConn(th *replication.Thread, id uint64, c *tcpstack.Conn) {
	lc := p.table.latest(keyOf(c))
	p.table.bind(id, lc)
	if !p.Streaming() {
		return
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
}
