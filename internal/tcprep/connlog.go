package tcprep

import (
	"repro/internal/sim"
	"repro/internal/streambuf"
	"repro/internal/tcpstack"
)

// ConnTable is the logical TCP state of a replicated stack (§3.4), in the
// one shape every replica keeps it: the recording side's table, updated from
// its stack's callbacks, and each backup's, updated from the sync ring, go
// through the same six mutators, so a backup's table is the recording side's
// as of the last update it applied. It holds one record per connection
// incarnation in establishment order — a four-tuple the client reuses after
// its connection was reaped starts a new record — with every connection's
// full in-order input stream from byte zero, the client-acknowledged output
// watermark, and the det-log socket bindings.
//
// The table always retains: a reaped connection keeps its record and a
// replayed read keeps the bytes it consumed, because a backup re-integrated
// after a failure replays the application from its seed and re-reads input
// the original backup consumed long ago (§3.7). Rejoin snapshots the
// recording side's table (snapshot) into the new backup's (seed); at
// failover the promoted backup's table becomes its detached primary's.
type ConnTable struct {
	conns     []*LogicalConn
	byKey     map[ConnKey]*LogicalConn // each four-tuple's latest record
	binds     map[uint64]*LogicalConn
	bindOrder []uint64
	// mut counts cumulative bytes of logical state dirtied by the mutators,
	// feeding the epoch pre-copy engine's convergence estimate
	// (rejoin.Source).
	mut  uint64
	bufs streambuf.Pool // backing arrays of the records' windows and lenders
	slab streambuf.Slab // the records' first input chunks
}

// LogicalConn is one incarnation of a replicated connection's logical TCP
// state. Offsets are 0-based stream offsets; ISS and IRS map them back to
// raw sequence numbers at promotion.
type LogicalConn struct {
	key      ConnKey
	iss, irs uint64
	at       int // index in ConnTable.conns

	in      streambuf.Tape // the full in-order input stream
	acked   uint64         // client-acknowledged output-stream watermark
	peerFin bool
	gone    bool // reaped from the recording side's stack

	// What only a backup uses. inRead marks how far the replayed
	// application has read in; lent holds what its last read returned. out
	// holds replica-regenerated output bytes [outBase, outBase+Len):
	// everything the client has not acknowledged, retransmittable after
	// failover. outBase advances with the acked watermark, but never past
	// what the replica has regenerated, so output produced later is trimmed
	// on arrival instead of being retransmitted to a client that already
	// acknowledged it.
	inRead    int
	lent      streambuf.Lender
	out       streambuf.Window
	outBase   uint64
	appClosed bool
	dataQ     sim.WaitQueue
	live      *tcpstack.Conn // the real connection after promotion
}

// newConnTable returns an empty table.
func newConnTable() *ConnTable {
	return &ConnTable{
		byKey: make(map[ConnKey]*LogicalConn),
		binds: make(map[uint64]*LogicalConn),
	}
}

func (t *ConnTable) add(key ConnKey) *LogicalConn {
	lc := &LogicalConn{key: key, at: len(t.conns)}
	lc.in.Init(&t.slab)
	lc.out.Init(&t.bufs)
	lc.lent.Init(&t.bufs)
	t.conns = append(t.conns, lc)
	t.byKey[key] = lc
	return lc
}

// latest returns the four-tuple's most recent record, starting one on first
// sight.
func (t *ConnTable) latest(key ConnKey) *LogicalConn {
	if lc := t.byKey[key]; lc != nil {
		return lc
	}
	return t.add(key)
}

// establish records a connection reaching ESTABLISHED. A four-tuple whose
// latest record is gone names a new incarnation and gets a record of its own.
func (t *ConnTable) establish(key ConnKey, iss, irs uint64) *LogicalConn {
	lc := t.byKey[key]
	if lc == nil || lc.gone {
		lc = t.add(key)
	}
	lc.iss, lc.irs = iss, irs
	t.mut += 64
	return lc
}

// dataIn returns the tape's view of the input it appended, valid for the table's life.
func (t *ConnTable) dataIn(lc *LogicalConn, data []byte) []byte {
	t.mut += uint64(len(data))
	return lc.in.Append(data)
}

func (t *ConnTable) ackOut(lc *LogicalConn, acked uint64) {
	if acked > lc.acked {
		lc.acked = acked
		t.mut += 8
	}
}

func (t *ConnTable) peerFinned(lc *LogicalConn) {
	lc.peerFin = true
	t.mut++
}

func (t *ConnTable) reaped(lc *LogicalConn) {
	lc.gone = true
	t.mut++
}

func (t *ConnTable) bind(id uint64, lc *LogicalConn) {
	if _, ok := t.binds[id]; !ok {
		t.bindOrder = append(t.bindOrder, id)
	}
	t.binds[id] = lc
	t.mut += 24
}

// Dirtied is the cumulative count of logical-state bytes mutated since
// boot, monotone; the epoch pre-copy engine differences readings to size
// each converging pass.
func (t *ConnTable) Dirtied() uint64 { return t.mut }

// Footprint is the table's current full-copy size in accounted bytes.
func (t *ConnTable) Footprint() int {
	n := 0
	for _, lc := range t.conns {
		n += 64 + lc.in.Len()
	}
	return n + 24*len(t.binds)
}

// ConnSnap is one connection record in a rejoin checkpoint.
type ConnSnap struct {
	Key      ConnKey
	ISS, IRS uint64
	// Sync is the id the recording side's delta stream names the
	// connection by (zero for a reaped one, which no delta will name).
	Sync uint64
	// In is the full in-order input stream from offset 0: a rejoining
	// backup replays the application from the start and must re-read it.
	In []byte
	// Acked is the client-acknowledged output-stream watermark; output the
	// rejoining replica regenerates below it is discarded immediately.
	Acked   uint64
	PeerFin bool
	Gone    bool
}

// BindSnap maps one det-log socket ID to the record it was bound to, by the
// record's index in StateSnap.Conns.
type BindSnap struct {
	ID   uint64
	Conn int
}

// StateSnap is the logical TCP half of a rejoin checkpoint: every record in
// establishment order plus the socket-ID bindings in announcement order. It
// is cut atomically (scheduler context, no yields) together with the
// FT-namespace cursors.
type StateSnap struct {
	Conns []ConnSnap
	Binds []BindSnap
}

// Bytes is the accounted bulk-transfer footprint of the snapshot.
func (s StateSnap) Bytes() int {
	n := 0
	for _, c := range s.Conns {
		n += 64 + len(c.In)
	}
	n += 24 * len(s.Binds)
	return n
}

// snapshot deep-copies the table in deterministic order, without sync ids.
func (t *ConnTable) snapshot() StateSnap {
	snap := StateSnap{
		Conns: make([]ConnSnap, 0, len(t.conns)),
		Binds: make([]BindSnap, 0, len(t.bindOrder)),
	}
	for _, lc := range t.conns {
		snap.Conns = append(snap.Conns, ConnSnap{
			Key:     lc.key,
			ISS:     lc.iss,
			IRS:     lc.irs,
			In:      lc.in.Clone(0),
			Acked:   lc.acked,
			PeerFin: lc.peerFin,
			Gone:    lc.gone,
		})
	}
	for _, id := range t.bindOrder {
		snap.Binds = append(snap.Binds, BindSnap{ID: id, Conn: t.binds[id].at})
	}
	return snap
}

// seed appends a snapshot's records and bindings, returning the records in
// snapshot order.
func (t *ConnTable) seed(snap StateSnap) []*LogicalConn {
	recs := make([]*LogicalConn, len(snap.Conns))
	for i, cs := range snap.Conns {
		lc := t.add(cs.Key)
		lc.iss, lc.irs = cs.ISS, cs.IRS
		lc.in.Append(cs.In)
		lc.acked, lc.peerFin, lc.gone = cs.Acked, cs.PeerFin, cs.Gone
		recs[i] = lc
	}
	for _, b := range snap.Binds {
		t.bind(b.ID, recs[b.Conn])
	}
	return recs
}
