// Package shm models FT-Linux's inter-replica messaging layer: "mail box"
// areas in shared memory through which the otherwise fully isolated kernel
// replicas communicate (§3, first design bullet).
//
// A Ring is a unidirectional bounded message channel with cache-coherency
// propagation latency. Senders block when the ring is full — this is the
// mechanism behind the paper's burst-vs-sustained throughput split (§4.1):
// in a short burst the primary only fills buffers; over a long period it
// must slow to the secondary's drain rate.
//
// Rings support vectored transfers: SendBatch coalesces N payloads behind
// one slot header and one propagation event, so the replication layer can
// amortize the per-message overhead that dominates Figure 5/7 traffic.
//
// The sending side is a lock-free MPSC ring with zero-copy reservation:
// a producer claims a slot span with Reserve (a fetch-add on the write
// cursor plus FIFO capacity admission), writes payloads in place with
// Span.Put, and publishes the whole span with one Commit — the single
// release-store the consumer's acquire-load pairs with. Send and
// SendBatch are thin wrappers over that path; see DESIGN.md §14 for the
// memory-model argument.
//
// Nothing on the path allocates in steady state (DESIGN.md §21): a message
// is a fixed-format value, a reservation and the transfer it becomes are
// one record the ring recycles — a Span is a generation-checked handle to
// it — and receivers drain into a buffer of their own (RecvBatchInto).
//
// Because the rings live in shared memory, messages survive the death of
// the sending kernel: only a cache-coherency-disrupting fault can lose the
// messages still in flight from the failed partition (§3.5). A Fabric
// groups all rings of a deployment, implements that loss semantics, and
// aggregates the message/byte counters reported in Figures 5 and 7.
package shm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// headerBytes is the per-transfer overhead accounted by the traffic
// counters: one cache line for the slot header, as in Popcorn's messaging
// layer. A batch shares a single header across all of its payloads.
const headerBytes = 64

// Message is one entry in a mailbox ring: a fixed-format slot. Kind selects
// the layout its owning package gives the scalar words W, the byte view
// Data and the reference slot Ref, with one encode/decode pair per kind
// beside the kind's definition. Size is the accounted footprint in bytes
// for traffic accounting and back-pressure: part of the modeled system,
// independent of this representation. Stream labels the logical sub-channel
// a message belongs to when several sequencer shards multiplex one ring
// (the ring keeps everything FIFO anyway).
//
// Data is a plain GC-owned slice — retained history aliases it, so the ring
// never recycles it. Ref is for cold kinds whose content does not fit in
// words and may only hold pointer-shaped values (a map, a pointer), which an
// interface stores without allocating. The struct stays within two cache
// lines (TestMessageSize): every queue copies it by value, and retained
// history is a []Message on both replicas.
type Message struct {
	Kind   int
	Stream int
	Size   int
	SentAt sim.Time
	W      [7]uint64
	Data   []byte
	Ref    any
}

// Stats counts traffic through a ring or fabric. Messages counts ring
// transfers (each paying one slot header), Payloads counts the application
// messages carried — Payloads/Messages is the batching efficiency.
type Stats struct {
	Messages int64 // ring transfers; a batch counts once
	Payloads int64 // application payloads carried; batch members count individually
	Batches  int64 // transfers that carried more than one payload
	Bytes    int64 // includes per-transfer header overhead
	Dropped  int64 // payloads lost to coherency faults

	// ReserveWaits counts reservations that had to park for capacity
	// (drain-rate backpressure events); SendWaitNs is the total virtual
	// time senders spent parked there.
	ReserveWaits int64
	SendWaitNs   int64

	// HighWaterBytes is the peak occupancy (delivered + in flight) the
	// ring ever reached — the sizing signal for capBytes. Aggregating
	// takes the max, not the sum: peaks on different rings are not
	// simultaneous, so a sum would describe no real moment.
	HighWaterBytes int64
}

func (s Stats) add(o Stats) Stats {
	hw := s.HighWaterBytes
	if o.HighWaterBytes > hw {
		hw = o.HighWaterBytes
	}
	return Stats{
		Messages:       s.Messages + o.Messages,
		Payloads:       s.Payloads + o.Payloads,
		Batches:        s.Batches + o.Batches,
		Bytes:          s.Bytes + o.Bytes,
		Dropped:        s.Dropped + o.Dropped,
		ReserveWaits:   s.ReserveWaits + o.ReserveWaits,
		SendWaitNs:     s.SendWaitNs + o.SendWaitNs,
		HighWaterBytes: hw,
	}
}

// xfer is the ring's pooled record: a reservation from claim to
// publication, then the same bytes as the transfer propagating through the
// cache hierarchy, not yet visible to the receiver. A vectored transfer
// propagates — and is lost to a coherency fault — as a unit. A doomed
// transfer is one a chaos hook condemned: it occupies ring capacity while
// propagating and then vanishes instead of delivering. Once delivered,
// dropped or aborted, the record — message array, event and callback —
// returns to its ring's free list and its generation moves on, so a Span
// that outlived it reads closed instead of aliasing the next tenant.
type xfer struct {
	ring      *Ring
	gen       uint64 // bumped at every release; a Span is valid only for the generation it was issued in
	msgs      []Message
	capMsgs   int
	budget    int64 // payload byte budget reserved for this span
	usedBytes int64 // payload bytes written so far
	reserved  int64 // ring bytes held: headerBytes + budget, shrunk at commit
	committed bool
	ev        sim.Event
	doomed    bool
}

// poisonReleased makes release scribble the record's messages, so a use
// after recycle fails a byte-identity assertion instead of passing because
// the record had not been reused yet. On in every test binary only.
var poisonReleased = testing.Testing()

// record takes a blank record from the ring's free list, which grows on
// demand: nothing is sized at NewRing, so an idle ring costs nothing.
func (r *Ring) record() *xfer {
	if n := len(r.free); n > 0 {
		x := r.free[n-1]
		r.free = r.free[:n-1]
		return x
	}
	x := &xfer{ring: r}
	x.ev.Init(r.sim.Root(), x.arrive)
	return x
}

// release ends the record's tenancy: outstanding handles go stale and what
// it carried is dropped (delivered messages were copied out by value).
func (r *Ring) release(x *xfer) {
	x.gen++
	clear(x.msgs)
	if poisonReleased {
		for i := range x.msgs {
			x.msgs[i] = Message{Kind: -1, Stream: -1, Size: -1, SentAt: -1, W: [7]uint64{1<<64 - 1, 1<<64 - 1}}
		}
	}
	x.msgs = x.msgs[:0]
	x.committed, x.doomed = false, false
	r.free = append(r.free, x)
}

// ChaosVerdict is a fault-injection decision for one ring transfer,
// returned by the hook installed with SetChaosHook. The zero value lets
// the transfer through untouched. Drop loses the transfer in propagation
// (capacity is freed when the doomed transfer would have delivered); Dup
// enqueues that many extra copies of the transfer (ignored when Drop is
// set); Delay adds propagation latency on top of the ring's base latency.
type ChaosVerdict struct {
	Drop  bool
	Dup   int
	Delay time.Duration
}

// slot is one delivered message plus the ring bytes it occupies (the first
// member of a batch carries the shared header).
type slot struct {
	msg   Message
	bytes int64
}

// Ring is a bounded unidirectional mailbox. It is identified by the sending
// partition so that a coherency fault on that partition can drop its
// in-flight messages.
type Ring struct {
	name     string
	src      int // sending partition index
	sim      *sim.Simulation
	fabric   *Fabric
	capBytes int64
	latency  time.Duration

	used      int64 // bytes occupied: delivered + in flight + reserved
	delivered int64
	onDeliver []func()
	buf       sim.Log[slot] // delivered and waiting to be received, oldest first
	inflight  []*xfer
	free      []*xfer // released records, reused by admit and by chaos dup copies
	sendQ     sim.WaitQueue
	recvQ     sim.WaitQueue
	recvEv    *sim.Event // the receiver event, armed where recvQ would wake (OnReceive)
	stats     Stats
	sc        *obs.Scope

	// resQ[resHead:] are the reservations waiting for capacity,
	// spans[spansHead:] the admitted spans not yet published, both in claim
	// order; freeTk recycles tickets.
	resQ      []*resTicket
	resHead   int
	freeTk    []*resTicket
	spans     []*xfer
	spansHead int

	chaos       func(msgs []Message) ChaosVerdict
	lastDeliver sim.Time // latest scheduled delivery instant, FIFO clamp
}

// Fabric owns every ring of a deployment.
type Fabric struct {
	sim     *sim.Simulation
	latency time.Duration
	rings   []*Ring
}

// NewFabric creates a fabric whose rings propagate messages with the given
// cross-partition latency (typically Partition.CrossLatency).
func NewFabric(s *sim.Simulation, latency time.Duration) *Fabric {
	return &Fabric{sim: s, latency: latency}
}

// NewRing creates a bounded mailbox of capBytes sent by partition src.
func (f *Fabric) NewRing(name string, src int, capBytes int64) *Ring {
	if capBytes < headerBytes {
		panic(fmt.Sprintf("shm: ring %q capacity %d below one slot", name, capBytes))
	}
	r := &Ring{
		name:     name,
		src:      src,
		sim:      f.sim,
		fabric:   f,
		capBytes: capBytes,
		latency:  f.latency,
	}
	f.rings = append(f.rings, r)
	return r
}

// Stats aggregates traffic across all rings of the fabric.
func (f *Fabric) Stats() Stats {
	var total Stats
	for _, r := range f.rings {
		total = total.add(r.stats)
	}
	return total
}

// Rings returns every ring of the fabric in creation order — the stable
// order core wires them in, so iterating is deterministic.
func (f *Fabric) Rings() []*Ring { return f.rings }

// RingStats is one ring's identity plus its traffic counters, for
// per-ring reporting (Figure 5/7 style breakdowns by channel).
type RingStats struct {
	Name string
	Src  int
	Stats
}

// PerRing returns each ring's counters individually, in creation order.
// The aggregate Stats hides which channel is hot; this is the breakdown.
func (f *Fabric) PerRing() []RingStats {
	out := make([]RingStats, 0, len(f.rings))
	for _, r := range f.rings {
		out = append(out, RingStats{Name: r.name, Src: r.src, Stats: r.stats})
	}
	return out
}

// DropInflight models a cache-coherency-disrupting fault on the given
// sending partition: every message from that partition that has not yet
// become visible to its receiver is lost (§3.5). It reports how many
// payloads were dropped. Freed capacity wakes blocked senders — without
// the wake-up a sender parked on a full ring would hang forever after the
// fault even though space is available again.
func (f *Fabric) DropInflight(src int) int {
	dropped := 0
	for _, r := range f.rings {
		if r.src != src {
			continue
		}
		// Reserved spans — open or committed-but-unpublished — are lost
		// with the transfers in flight: their slots sit on the failed
		// partition's side of the coherency boundary and the consumer can
		// never advance over them. Payloads already written into a span
		// count as dropped (log entries the replayer will now see as a
		// gap); releasing the record makes the sender's handle read closed.
		spans := r.spans[r.spansHead:]
		freed := len(r.inflight)+len(spans) > 0
		lost := 0
		for _, in := range r.inflight {
			in.ev.Cancel()
		}
		for _, q := range [2][]*xfer{r.inflight, spans} {
			for _, x := range q {
				r.used -= x.reserved
				lost += len(x.msgs)
				r.release(x)
			}
		}
		clear(r.inflight)
		clear(r.spans)
		r.inflight, r.spans, r.spansHead = r.inflight[:0], r.spans[:0], 0
		if lost > 0 {
			r.stats.Dropped += int64(lost)
			dropped += lost
			r.sc.Emit(obs.LogDrop, 0, 0, int64(lost))
		}
		if freed {
			r.sc.Emit(obs.RingDepth, 0, 0, r.used)
			r.wakeSenders()
		}
	}
	return dropped
}

// Name returns the ring's name.
func (r *Ring) Name() string { return r.name }

// Instrument attaches an event scope to the ring. Deliveries emit
// RingDeliver events and occupancy transitions emit RingDepth samples
// (a Chrome counter track). A nil scope leaves the ring uninstrumented.
func (r *Ring) Instrument(sc *obs.Scope) { r.sc = sc }

// Stats returns the ring's traffic counters.
func (r *Ring) Stats() Stats { return r.stats }

// Len reports the number of messages delivered and waiting to be received.
func (r *Ring) Len() int { return r.buf.Len() }

// InFlight reports the number of transfers still propagating.
func (r *Ring) InFlight() int { return len(r.inflight) }

// Latency reports the ring's propagation delay.
func (r *Ring) Latency() time.Duration { return r.latency }

// Delivered reports how many messages have become visible to the receiver
// (the consumer-side slot state a sender can poll for receipt, §3.5).
// Every payload of a vectored transfer counts individually, so watermarks
// derived from Delivered stay comparable to per-message send counts.
func (r *Ring) Delivered() int64 { return r.delivered }

// OnDelivered registers a callback fired each time a transfer becomes
// visible to the receiver. Callbacks run in scheduler context and must not
// block; the output-commit machinery uses them to learn of receipt without
// waiting for the receiver to be scheduled.
func (r *Ring) OnDelivered(fn func()) { r.onDeliver = append(r.onDeliver, fn) }

// Free reports the remaining capacity in bytes. Producers that must not
// block (e.g. packet-ingress hooks) check it to apply backpressure by
// dropping work instead of messages.
func (r *Ring) Free() int64 { return r.capBytes - r.used }

// payloadBytes sums the payload sizes of a batch (the reservation budget;
// the one shared slot header is accounted by the reservation itself).
func payloadBytes(msgs []Message) int64 {
	var total int64
	for i := range msgs {
		total += int64(msgs[i].Size)
	}
	return total
}

// TrySend attempts a non-blocking send. It reports false if the ring lacks
// space or earlier reservations are still queued ahead of it.
func (r *Ring) TrySend(m Message) bool {
	return r.TrySendBatch([]Message{m})
}

// TrySendBatch attempts a non-blocking vectored send of all msgs as one
// transfer. It reports false (sending nothing) if the ring lacks space for
// the whole batch or if earlier reservations are queued (claiming now
// would publish out of order). An empty batch trivially succeeds. msgs is
// copied by value; the caller keeps the slice.
func (r *Ring) TrySendBatch(msgs []Message) bool {
	if len(msgs) == 0 {
		return true
	}
	sp := r.TryReserve(len(msgs), payloadBytes(msgs))
	if !sp.Open() {
		return false
	}
	for i := range msgs {
		sp.Put(msgs[i])
	}
	sp.Commit()
	return true
}

// Send writes a message into the ring, blocking the calling process while
// the ring is full. Admission is strictly FIFO by claim order: a blocked
// send holds its place in the ring sequence, so a later smaller message
// can never be admitted ahead of it (that reordering would let two
// concurrent log flushes swap, which the replayer would see as a gap).
func (r *Ring) Send(p *sim.Proc, m Message) {
	r.SendBatch(p, []Message{m})
}

// SendBatch writes all msgs into the ring as one vectored transfer sharing
// a single slot header and a single propagation event, blocking while the
// batch does not fit. The batch is delivered atomically: receivers observe
// its members contiguously and in order. It is a wrapper over the
// reserve/commit path; msgs is copied by value and the caller keeps the
// slice.
func (r *Ring) SendBatch(p *sim.Proc, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	sp := r.Reserve(p, len(msgs), payloadBytes(msgs))
	for i := range msgs {
		sp.Put(msgs[i])
	}
	sp.Commit()
}

// SetChaosHook installs a fault-injection hook consulted once per
// transfer, at span commit (chaos layer only; nil uninstalls). The hook
// runs in whatever context the committing sender runs in and must not
// block, and must not keep msgs: the array belongs to a pooled record.
func (r *Ring) SetChaosHook(fn func(msgs []Message) ChaosVerdict) { r.chaos = fn }

// publish turns a committed span into propagation: the chaos hook rules
// on the whole span once, then the record itself becomes the transfer —
// nothing copied — and each extra copy a Dup verdict asks for gets a record
// of its own. Under Drop the one transfer still propagates, then vanishes.
func (r *Ring) publish(x *xfer) {
	r.sim.Guard("shm send")
	// One publication event per committed span, regardless of chaos
	// copies: Seq is the sent-payload watermark after this span, which
	// the causal layer pairs with the RingDeliver watermark downstream.
	r.sc.Emit(obs.SpanCommit, 0, r.stats.Payloads+int64(len(x.msgs)), int64(len(x.msgs)))
	var v ChaosVerdict
	if r.chaos != nil {
		v = r.chaos(x.msgs)
	}
	now := r.sim.Now()
	for i := range x.msgs {
		x.msgs[i].SentAt = now
	}
	x.doomed = v.Drop
	r.enqueue(x, false, v.Delay)
	if v.Drop {
		return
	}
	for c := 0; c < v.Dup; c++ {
		d := r.record()
		d.msgs = append(d.msgs, x.msgs...)
		d.reserved = x.reserved
		r.enqueue(d, true, v.Delay)
	}
}

// enqueue schedules one propagation of a published record. Delivery
// instants are clamped monotonic per ring: a transfer slowed by chaos
// delay pushes the delivery horizon forward for everything sent after
// it, so injected delay can never reorder a FIFO mailbox (which would
// turn a latency fault into an impossible log gap). The first copy's
// bytes were accounted at reservation time; a dup copy occupies
// additional capacity of its own.
func (r *Ring) enqueue(in *xfer, dupCopy bool, extra time.Duration) {
	if dupCopy {
		r.used += in.reserved
		if r.used > r.stats.HighWaterBytes {
			r.stats.HighWaterBytes = r.used
		}
	}
	r.stats.Messages++
	r.stats.Payloads += int64(len(in.msgs))
	if len(in.msgs) > 1 {
		r.stats.Batches++
	}
	r.stats.Bytes += in.reserved
	if dupCopy {
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	}
	now := r.sim.Now()
	at := now.Add(r.latency + extra)
	if at < r.lastDeliver {
		at = r.lastDeliver
	}
	r.lastDeliver = at
	in.ev.Reset(at.Sub(now))
	r.inflight = append(r.inflight, in)
}

func (in *xfer) arrive() {
	in.ring.deliver(in)
	in.ring.release(in)
}

func (r *Ring) deliver(in *xfer) {
	for i, x := range r.inflight {
		if x == in {
			last := len(r.inflight) - 1
			copy(r.inflight[i:], r.inflight[i+1:])
			r.inflight[last] = nil
			r.inflight = r.inflight[:last]
			break
		}
	}
	if in.doomed {
		r.used -= in.reserved
		r.stats.Dropped += int64(len(in.msgs))
		r.sc.Emit(obs.LogDrop, 0, 0, int64(len(in.msgs)))
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
		r.wakeSenders()
		return
	}
	for i := range in.msgs {
		b := int64(in.msgs[i].Size)
		if i == 0 {
			b += headerBytes // the batch's shared header travels with its first member
		}
		r.buf.Append(slot{msg: in.msgs[i], bytes: b})
	}
	r.delivered += int64(len(in.msgs))
	r.sc.Emit(obs.RingDeliver, 0, r.delivered, int64(len(in.msgs)))
	for _, fn := range r.onDeliver {
		fn()
	}
	if e := r.recvEv; e == nil {
		r.recvQ.WakeOne(0)
	} else if r.recvQ.Len() > 0 {
		panic(fmt.Sprintf("shm: ring %q has a receiver event and a parked receiver", r.name))
	} else if !e.Armed() {
		e.Reset(0) // the one draw the parked receiver's resume would make
	}
}

// OnReceive makes e the ring's one receiver: a delivery that finds e
// unarmed arms it now, where Recv's parked caller would wake, to drain the
// ring without blocking. Init e and set its background mark first; nil detaches.
func (r *Ring) OnReceive(e *sim.Event) {
	if r.recvEv != nil {
		r.recvEv.Cancel()
	}
	r.recvEv = e
}

// TryRecv attempts a non-blocking receive. It reports false if no message
// is available.
func (r *Ring) TryRecv() (Message, bool) {
	if r.Len() == 0 {
		return Message{}, false
	}
	return r.pop(), true
}

// Recv blocks the calling process until a message is available, then
// returns it.
func (r *Ring) Recv(p *sim.Proc) Message {
	for r.Len() == 0 {
		r.recvQ.Wait(p)
	}
	return r.pop()
}

// RecvBatchInto blocks until at least one message is available, then
// appends up to max delivered messages (all of them if max <= 0) to dst
// without waiting for more. Hot-path receivers drain a vectored delivery in
// one scheduling round this way, passing their buffer back as dst[:0].
func (r *Ring) RecvBatchInto(p *sim.Proc, dst []Message, max int) []Message {
	for r.Len() == 0 {
		r.recvQ.Wait(p)
	}
	return r.TryRecvBatchInto(dst, max)
}

// TryRecvBatchInto is RecvBatchInto without the wait: dst as it is if empty.
func (r *Ring) TryRecvBatchInto(dst []Message, max int) []Message {
	n := r.Len()
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.pop())
	}
	return dst
}

// RecvTimeout is like Recv but gives up after d, reporting false.
func (r *Ring) RecvTimeout(p *sim.Proc, d time.Duration) (Message, bool) {
	deadline := r.sim.Now().Add(d)
	for r.Len() == 0 {
		remain := deadline.Sub(r.sim.Now())
		if remain <= 0 || !r.recvQ.WaitTimeout(p, remain) {
			if r.Len() > 0 {
				break
			}
			return Message{}, false
		}
	}
	return r.pop(), true
}

func (r *Ring) pop() Message {
	s := r.buf.PopFront()
	r.used -= s.bytes
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	r.wakeSenders()
	return s.msg
}

// wakeSenders runs after capacity frees: queued reservations are admitted
// head-first while they fit (one large receive can admit several small
// pending spans), then every parked sender wakes to pick up its span.
func (r *Ring) wakeSenders() {
	r.admitWaiters()
	r.sendQ.WakeAll(0)
}

// Drain removes and returns every delivered message without blocking. The
// failover path uses it to collect the log the dead primary left behind.
// Reserved-but-uncommitted spans are released: their contents were never
// published, so no drain can recover them, and leaving the reservation in
// place would jam the ring's sequence forever (a sender that died between
// Reserve and Commit leaves exactly that leak; the outbox kill tests pin
// its release). Committed spans queued behind such a hole publish
// normally once it is released — like in-flight transfers, they survive
// the sender's death.
func (r *Ring) Drain() []Message {
	out := make([]Message, 0, r.Len())
	for r.buf.Len() > 0 {
		s := r.buf.PopFront()
		out = append(out, s.msg)
		r.used -= s.bytes
	}
	// Handles, not records: aborting one span can admit a queued ticket
	// onto the record just released, and that tenant is not ours to abort.
	open := make([]Span, 0, r.OpenSpans())
	for _, x := range r.spans[r.spansHead:] {
		open = append(open, Span{x, x.gen})
	}
	for _, sp := range open {
		if sp.Open() {
			sp.Abort()
		}
	}
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	r.wakeSenders()
	return out
}
