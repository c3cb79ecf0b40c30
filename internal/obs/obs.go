// Package obs is the observability layer of the reproduction: a typed
// event tracer, a metrics registry, and a per-replica flight recorder
// covering the record/replay hot path, the shared-memory mailboxes, the
// TCP logical-state sync, failure detection, and the failover timeline.
//
// The paper evaluates FT-Linux almost entirely through externally
// observed numbers (PBZIP2 runtime, Mongoose throughput, the §4.4
// failover clock) because the replication internals are invisible at
// runtime. This package makes them first-class: every layer emits typed
// events into a Tracer and updates metrics in a Registry, so a run ends
// with a Perfetto-loadable timeline and paper-meaningful signals (replay
// lag, output-commit stalls, batch fill, ring high-water marks) instead
// of just a wall-clock number.
//
// Determinism contract: every timestamp comes from the simulation's
// virtual clock (sim.Simulation.Now) and every attribute is derived from
// simulation state, never from the host (no time.Now, no map-iteration
// order, no host randomness). Two runs with the same seed therefore
// produce byte-identical traces — the property that makes a trace diff
// a usable debugging tool for a deterministic system. The nondet
// analyzer enforces the contract: it treats the obs API as a sanctioned
// sink but diagnoses wall-clock values smuggled into trace attributes.
//
// Cost contract: the layer is always compiled and cheap when disabled.
// Every emit and metric update is nil-safe — a component holding a nil
// *Scope or nil *Counter pays one pointer test per operation — so the
// hot path carries its instrumentation unconditionally and deployments
// opt in by wiring a Tracer (core.Config.Obs) or a Registry.
package obs

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/sim"
)

// Kind is the type of one traced event. The taxonomy follows the tuple
// lifecycle (emit → flush → deliver → replay → ack), the output-commit
// machinery, and the failure-detection/failover state machine; see
// DESIGN.md §11 for the full table.
type Kind uint8

const (
	// DetEnter/DetExit bracket one deterministic section (record or
	// replay side): TID is the ft_pid, Seq the global sequence number.
	DetEnter Kind = iota + 1
	DetExit
	// TupleEmit is one log tuple handed to the streaming layer
	// (Seq = Seq_global, Arg = tuple footprint in bytes).
	TupleEmit
	// BatchFlush is one vectored transfer pushed onto a log/sync ring
	// (Seq = sent watermark after the flush, Arg = payloads in the batch).
	BatchFlush
	// RingDeliver marks a transfer becoming visible to the receiving
	// partition (Seq = delivered watermark, Arg = payloads delivered).
	RingDeliver
	// RingDepth samples a ring's occupancy in bytes (Arg); exported as a
	// Chrome counter track so Perfetto plots the fill level over time.
	RingDepth
	// Replay is a deterministic-section turn granted to a shadow thread
	// (TID = ft_pid, Seq = Seq_global).
	Replay
	// AckSend is a cumulative acknowledgement sent by the replayer
	// (Seq = processed watermark).
	AckSend
	// SyncFlush is a TCP logical-state delta batch pushed onto the
	// tcprep.sync ring (Seq = synced watermark, Arg = updates).
	SyncFlush
	// Heartbeat is one heart-beat received from the peer (Seq = count).
	Heartbeat
	// HeartbeatMiss is the detector timing out without a heart-beat
	// (Seq = beats received so far, Arg = timeout in ns).
	HeartbeatMiss
	// Suspect is the peer being declared failed.
	Suspect
	// IPIHalt is the forcible inter-processor halt of a live suspect.
	IPIHalt
	// FailoverStart marks the failover sequence beginning.
	FailoverStart
	// DriverLoad/DriverUp bracket a device driver (re)load — the cost
	// that dominates §4.4 failover time.
	DriverLoad
	DriverUp
	// Promote is the replayer draining the dead primary's log
	// (Seq = replay head, Arg = messages drained from shared memory).
	Promote
	// GoLive is a replica entering unreplicated execution (RoleLive).
	GoLive
	// OutputHeld/OutputReleased bracket an output-commit stall
	// (Seq = watermark; Arg on release = wait in ns).
	OutputHeld
	OutputReleased
	// KernelPanic is a kernel dying (Note = cause).
	KernelPanic
	// LogDrop is log discarded past the stable point at promotion, or
	// in-flight mailbox messages lost to a coherency fault (Arg = count).
	LogDrop
	// StateChange is a System lifecycle transition (Seq = new
	// core.LifecycleState, Note = "old->new").
	StateChange
	// ResyncStart marks backup re-integration beginning: a fresh kernel
	// booted on the freed partition (Seq = rejoin generation, Arg = the
	// attach frontier, the Seq_global watermark the catch-up replay is
	// verified at).
	ResyncStart
	// CheckpointCut is the seed checkpoint of a rejoin, sealed with the
	// TCP snapshot at the attach instant (Seq = the seed's Seq_global
	// watermark — 0 for genesis — Arg = bytes shipped over the bulk
	// ring, Note = generation, seed epoch, apps, connections).
	CheckpointCut
	// CatchupDone is the catch-up backlog draining empty: the new backup
	// has replayed to the recorder's watermark and the link flips into
	// the output-commit set (Seq = watermark).
	CatchupDone
	// ResyncDone marks the system back in replicated mode (Seq = rejoin
	// generation, Arg = resync duration in ns).
	ResyncDone
	// ChaosInject is one fault-injection event firing (Note = event spec).
	ChaosInject
	// SpanReserve is a sender admitted into a ring reservation after
	// blocking (Seq = ticket, Arg = reservation wait in ns). Fast-path
	// reservations that never block are not traced: the event exists to
	// attribute ring back-pressure, not to count spans.
	SpanReserve
	// SpanCommit is a reserved span published into ring visibility
	// (Seq = cumulative payloads sent after the commit, Arg = payloads
	// in the span).
	SpanCommit
	// Election is a failover election decided among surviving backups
	// (Seq = winning replica slot, Arg = the winner's receipt watermark;
	// Note = per-loser watermark summary).
	Election
	// ReplicaRetire is one replica removed from the set — an election
	// loser, or a rolling replacement draining an old backup (Seq =
	// replica slot, Arg = its receipt watermark at retirement).
	ReplicaRetire
	// QuorumLost marks the commit rule degrading below its configured
	// quorum: fewer live backups remain than CommitQuorum (Seq = live
	// backups, Arg = configured quorum).
	QuorumLost
	// EpochCut is an incremental epoch checkpoint cut on the primary
	// (Seq = epoch number, Arg = final stop-the-world pause in ns;
	// Note = pre-copy pass summary).
	EpochCut
	// EpochTruncate is a retained tuple log truncated at a verified
	// epoch boundary — on the primary after the epoch-ack quorum, on a
	// backup after digest verification at the replay frontier (Seq =
	// epoch number, Arg = tuples dropped).
	EpochTruncate
)

var kindNames = [...]string{
	DetEnter:       "det-enter",
	DetExit:        "det-exit",
	TupleEmit:      "tuple-emit",
	BatchFlush:     "batch-flush",
	RingDeliver:    "deliver",
	RingDepth:      "ring-depth",
	Replay:         "replay",
	AckSend:        "ack",
	SyncFlush:      "sync-flush",
	Heartbeat:      "heartbeat",
	HeartbeatMiss:  "heartbeat-miss",
	Suspect:        "suspect",
	IPIHalt:        "ipi-halt",
	FailoverStart:  "failover",
	DriverLoad:     "driver-load",
	DriverUp:       "driver-up",
	Promote:        "promote",
	GoLive:         "live",
	OutputHeld:     "output-held",
	OutputReleased: "output-released",
	KernelPanic:    "panic",
	LogDrop:        "drop",
	StateChange:    "state",
	ResyncStart:    "resync-start",
	CheckpointCut:  "checkpoint",
	CatchupDone:    "catchup-done",
	ResyncDone:     "resync-done",
	ChaosInject:    "chaos",
	SpanReserve:    "span-reserve",
	SpanCommit:     "span-commit",
	Election:       "election",
	ReplicaRetire:  "replica-retire",
	QuorumLost:     "quorum-lost",
	EpochCut:       "epoch-cut",
	EpochTruncate:  "epoch-truncate",
}

// kindByName is the inverse of kindNames, built once for ParseKind.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		if name != "" {
			m[name] = Kind(k)
		}
	}
	return m
}()

// ParseKind resolves an event-kind name (as rendered by Kind.String and
// MarshalJSON) back to its enum value.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, so JSONL traces and flight
// dumps are readable without the enum table.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the name form written by MarshalJSON, so JSONL
// traces round-trip through encoding/json (ftdiag reads them back).
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return &json.UnmarshalTypeError{Value: string(b), Type: reflect.TypeOf(Kind(0))}
	}
	kk, ok := ParseKind(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("obs: unknown event kind %s", b)
	}
	*k = kk
	return nil
}

// Event is one traced occurrence. Seq and Arg are kind-specific numeric
// attributes (documented per Kind); Note is an optional preformatted
// detail string that must itself be deterministic.
//
// Obj/OSeq carry the per-object sequencing identity <obj_id, Seq_obj>
// on deterministic-section events (DetEnter/DetExit/TupleEmit/Replay):
// the causal layer (internal/obs/causal) keys its happens-before edges
// and its cross-replica trace alignment on this tuple, so the pair must
// match between the recording event and the replay grant of the same
// section.
type Event struct {
	Order uint64   `json:"order"` // global emission order, merge key
	At    sim.Time `json:"at"`    // virtual time, ns
	Scope string   `json:"scope"`
	Kind  Kind     `json:"kind"`
	TID   int32    `json:"tid,omitempty"` // thread lane (ft_pid) within the scope
	Seq   int64    `json:"seq,omitempty"`
	Arg   int64    `json:"arg,omitempty"`
	Obj   uint64   `json:"obj,omitempty"`  // det object key (op<<48|obj for non-lock ops)
	OSeq  int64    `json:"oseq,omitempty"` // per-object sequence number Seq_obj
	Note  string   `json:"note,omitempty"`
}

// Config tunes a Tracer.
type Config struct {
	// Trace retains the full event stream for export (Chrome trace,
	// JSONL). Off, only the bounded per-scope flight rings record.
	Trace bool
}

// DefaultFlightEvents is the per-scope flight-ring capacity: enough to
// hold the last few batches of tuple lifecycle events plus the full
// detector state machine around a failure.
const DefaultFlightEvents = 256

// Tracer owns the event stream, the per-scope flight rings, and the
// deployment's metrics registry. A nil *Tracer is a valid disabled
// tracer: Scope returns nil scopes and Registry returns nil, so every
// downstream operation degrades to a pointer test.
type Tracer struct {
	sim    *sim.Simulation
	cfg    Config
	reg    *Registry
	order  uint64
	scopes []*Scope
	events []Event
}

// New creates a tracer on the given simulation clock.
func New(s *sim.Simulation, cfg Config) *Tracer {
	return &Tracer{sim: s, cfg: cfg, reg: NewRegistry()}
}

// Enabled reports whether the tracer retains the full event stream.
func (t *Tracer) Enabled() bool { return t != nil && t.cfg.Trace }

// Registry returns the tracer's metrics registry (nil on a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Scope creates (or returns) the named event scope — one per
// instrumented component, mapped to one process row in the Chrome
// trace. Scopes are created in wiring order, which is deterministic.
func (t *Tracer) Scope(name string) *Scope {
	if t == nil {
		return nil
	}
	for _, sc := range t.scopes {
		if sc.name == name {
			return sc
		}
	}
	sc := &Scope{t: t, name: name, flight: make([]Event, DefaultFlightEvents)}
	t.scopes = append(t.scopes, sc)
	return sc
}

// Scopes returns every scope in creation order.
func (t *Tracer) Scopes() []*Scope {
	if t == nil {
		return nil
	}
	return t.scopes
}

// Events returns the retained event stream (empty unless Config.Trace).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Scope is one component's named event source plus its bounded flight
// ring. All methods are nil-safe; emitting on a nil scope is a no-op.
type Scope struct {
	t    *Tracer
	name string

	flight []Event // bounded ring of the most recent events
	fpos   int     // next write position
	fn     int     // events written (saturates at len(flight))
}

// Name returns the scope name.
func (sc *Scope) Name() string {
	if sc == nil {
		return ""
	}
	return sc.name
}

// Emit records an event with kind-specific numeric attributes.
func (sc *Scope) Emit(k Kind, tid int, seq, arg int64) {
	sc.emit(k, tid, seq, arg, 0, 0, "")
}

// EmitDet records a deterministic-section event carrying the per-object
// sequencing identity <obj, oseq> alongside the usual attributes. The
// recorder and replayer emit their DetEnter/DetExit/TupleEmit/Replay
// events through this so the causal layer can align the two sides.
func (sc *Scope) EmitDet(k Kind, tid int, seq, arg int64, obj uint64, oseq int64) {
	sc.emit(k, tid, seq, arg, obj, oseq, "")
}

// EmitNote is Emit with a preformatted detail string. The note must be
// deterministic (derived from simulation state only): it travels into
// traces that are compared byte-for-byte across runs.
func (sc *Scope) EmitNote(k Kind, tid int, seq, arg int64, note string) {
	sc.emit(k, tid, seq, arg, 0, 0, note)
}

func (sc *Scope) emit(k Kind, tid int, seq, arg int64, obj uint64, oseq int64, note string) {
	if sc == nil {
		return
	}
	t := sc.t
	t.order++
	e := Event{
		Order: t.order,
		At:    t.sim.Now(),
		Scope: sc.name,
		Kind:  k,
		TID:   int32(tid),
		Seq:   seq,
		Arg:   arg,
		Obj:   obj,
		OSeq:  oseq,
		Note:  note,
	}
	sc.flight[sc.fpos] = e
	sc.fpos = (sc.fpos + 1) % len(sc.flight)
	if sc.fn < len(sc.flight) {
		sc.fn++
	}
	if t.cfg.Trace {
		t.events = append(t.events, e)
	}
}

// Recent returns the scope's flight-ring contents, oldest first.
func (sc *Scope) Recent() []Event {
	if sc == nil || sc.fn == 0 {
		return nil
	}
	out := make([]Event, 0, sc.fn)
	start := sc.fpos - sc.fn
	if start < 0 {
		start += len(sc.flight)
	}
	for i := 0; i < sc.fn; i++ {
		out = append(out, sc.flight[(start+i)%len(sc.flight)])
	}
	return out
}
