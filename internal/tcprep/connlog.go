package tcprep

// ConnLog retains the complete logical TCP history of a replicated stack —
// every connection's full in-order input stream from byte zero, the
// client-acknowledged output watermark, and the det-log socket bindings —
// so a fresh backup can be re-integrated after a failure (§3.7): the
// rejoining replica replays the application from the beginning and re-reads
// input that the original secondary would long since have consumed.
//
// The log lives on whichever side currently records: the initial primary
// keeps one from construction (EnableRetention), and a promoted secondary
// converts its retained logical connections into one (HistoryLog) for the
// detached primary that carries the history forward.
type ConnLog struct {
	conns     map[ConnKey]*connHist
	order     []ConnKey // establishment order, for deterministic snapshots
	binds     map[uint64]ConnKey
	bindOrder []uint64
	// mut counts cumulative bytes of logical state dirtied by the
	// mutators above, feeding the epoch pre-copy engine's convergence
	// estimate (rejoin.Source).
	mut uint64
}

// connHist is one connection's retained logical history.
type connHist struct {
	key      ConnKey
	iss, irs uint64
	in       []byte // full in-order input stream from offset 0
	acked    uint64 // client-acknowledged output-stream watermark
	peerFin  bool
	gone     bool // reaped from the live stack (history still needed)
}

// NewConnLog returns an empty connection log.
func NewConnLog() *ConnLog {
	return &ConnLog{
		conns: make(map[ConnKey]*connHist),
		binds: make(map[uint64]ConnKey),
	}
}

func (cl *ConnLog) hist(key ConnKey) *connHist {
	h, ok := cl.conns[key]
	if !ok {
		h = &connHist{key: key}
		cl.conns[key] = h
		cl.order = append(cl.order, key)
	}
	return h
}

func (cl *ConnLog) established(key ConnKey, iss, irs uint64) {
	h := cl.hist(key)
	h.iss, h.irs = iss, irs
	cl.mut += 64
}

func (cl *ConnLog) dataIn(key ConnKey, data []byte) {
	h := cl.hist(key)
	h.in = append(h.in, data...)
	cl.mut += uint64(len(data))
}

func (cl *ConnLog) ackIn(key ConnKey, acked uint64) {
	h := cl.hist(key)
	if acked > h.acked {
		h.acked = acked
		cl.mut += 8
	}
}

func (cl *ConnLog) fin(key ConnKey) {
	cl.hist(key).peerFin = true
	cl.mut++
}

func (cl *ConnLog) goneMark(key ConnKey) {
	if h, ok := cl.conns[key]; ok {
		h.gone = true
		cl.mut++
	}
}

func (cl *ConnLog) bind(id uint64, key ConnKey) {
	if _, ok := cl.binds[id]; !ok {
		cl.bindOrder = append(cl.bindOrder, id)
	}
	cl.binds[id] = key
	cl.mut += 24
}

// Conns reports the number of connections retained.
func (cl *ConnLog) Conns() int { return len(cl.conns) }

// Dirtied is the cumulative count of logical-state bytes mutated since
// boot, monotone; the epoch pre-copy engine differences readings to size
// each converging pass.
func (cl *ConnLog) Dirtied() uint64 { return cl.mut }

// Footprint is the log's current full-copy size in accounted bytes.
func (cl *ConnLog) Footprint() int {
	n := 0
	for _, h := range cl.conns {
		n += 64 + len(h.in)
	}
	return n + 24*len(cl.binds)
}

// ConnSnap is one connection's logical history in a rejoin checkpoint.
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

// BindSnap maps one det-log socket ID to its connection.
type BindSnap struct {
	ID  uint64
	Key ConnKey
}

// StateSnap is the logical TCP half of a rejoin checkpoint: every retained
// connection in establishment order plus the socket-ID bindings in
// announcement order. It is cut atomically (scheduler context, no yields)
// together with the FT-namespace cursors.
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

// Snapshot deep-copies the retained history in deterministic order.
func (cl *ConnLog) Snapshot() StateSnap {
	snap := StateSnap{
		Conns: make([]ConnSnap, 0, len(cl.order)),
		Binds: make([]BindSnap, 0, len(cl.bindOrder)),
	}
	for _, key := range cl.order {
		h := cl.conns[key]
		snap.Conns = append(snap.Conns, ConnSnap{
			Key:     key,
			ISS:     h.iss,
			IRS:     h.irs,
			In:      append([]byte(nil), h.in...),
			Acked:   h.acked,
			PeerFin: h.peerFin,
			Gone:    h.gone,
		})
	}
	for _, id := range cl.bindOrder {
		snap.Binds = append(snap.Binds, BindSnap{ID: id, Key: cl.binds[id]})
	}
	return snap
}
