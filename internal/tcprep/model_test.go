package tcprep

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// modelConn is one connection incarnation as the reference model keeps it:
// plain slices, and the primary-side connection the stack callbacks name.
type modelConn struct {
	conn     *tcpstack.Conn
	key      ConnKey
	iss, irs uint64
	in       []byte
	acked    uint64
	peerFin  bool
	gone     bool
	// What the replayed application did on every backup, once the
	// connection was bound: the output it regenerated and whether it closed.
	bound     uint64 // socket id, 0 before the bind
	out       []byte
	appClosed bool
}

type tableModelWorld struct {
	t      *testing.T
	s      *sim.Simulation
	k      *kernel.Kernel
	fab    *shm.Fabric
	rng    *rand.Rand
	prim   *Primary
	rings  []*shm.Ring
	secs   []*Secondary
	stacks []*tcpstack.Stack // stacks[i] holds the i-th incarnation of a four-tuple
	step   int

	conns   []*modelConn
	byKey   map[ConnKey]*modelConn
	binds   []BindSnap
	mut     uint64
	nextID  uint64
	pending *modelConn // the connection the app thread is binding
	bindQ   sim.WaitQueue

	reuses, refused, drains int
	merged                  int // data-in updates applied that carried an ack-out's watermark
	gaps                    int // cursor-seeded promotions of a connection acknowledged short of its cursor

	// sends queues what the application wrote for the primary's app thread
	// to write into its stack; sending counts those not yet written. cut is
	// the send cursors of the last drain, an epoch cut's.
	sends   []modelSend
	sending int
	cut     []SendCursor
}

type modelSend struct {
	conn *tcpstack.Conn
	data []byte
}

// modelRingBytes is small enough that the rings refuse flushes routinely.
const modelRingBytes = 2 << 10

func newTableModelWorld(t *testing.T, seed int64) *tableModelWorld {
	s := sim.New(seed)
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "primary", Params: kernel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	w := &tableModelWorld{t: t, s: s, k: k, fab: shm.NewFabric(s, time.Microsecond),
		rng: rand.New(rand.NewSource(seed)), byKey: make(map[ConnKey]*modelConn)}
	for i := 0; i < 2; i++ {
		w.rings = append(w.rings, w.fab.NewRing(fmt.Sprintf("sync-%d", i), 0, modelRingBytes))
		w.secs = append(w.secs, NewSecondary(k, w.rings[i], DefaultCosts()))
	}
	w.prim = NewPrimary(replication.NewLive("ftns", k), w.stack(0), w.rings, DefaultCosts(), nil)
	// The application's accept loop: it binds one connection at a time, from
	// task context, where the bind's flush may park on a full ring, and
	// writes what it sent into the primary's stack, which keeps the unacked.
	w.prim.ns.Start("app", nil, func(th *replication.Thread) {
		for {
			for w.pending == nil && len(w.sends) == 0 {
				w.bindQ.Wait(th.Task().Proc())
			}
			for len(w.sends) > 0 {
				s := w.sends[0]
				w.sends = w.sends[1:]
				if _, err := s.conn.Send(th.Task(), s.data); err != nil {
					w.t.Errorf("step %d: primary send: %v", w.step, err)
				}
				w.sending--
			}
			mc := w.pending
			if mc == nil {
				continue
			}
			w.nextID++
			mc.bound = w.nextID
			w.binds = append(w.binds, BindSnap{ID: mc.bound, Conn: w.index(mc)})
			w.mut += 24
			w.prim.bindConn(th, mc.bound, mc.conn)
			w.pending = nil
		}
	})
	return w
}

func (w *tableModelWorld) stack(i int) *tcpstack.Stack {
	for len(w.stacks) <= i {
		w.stacks = append(w.stacks, tcpstack.New(w.k, "server", tcpstack.DefaultParams()))
	}
	return w.stacks[i]
}

func (w *tableModelWorld) index(mc *modelConn) int {
	for i, c := range w.conns {
		if c == mc {
			return i
		}
	}
	panic("tcprep model: connection not in the model")
}

// fits is the test world's back-pressure: an update joins the outboxes only
// if no buffer then outgrows its ring (the stack's ingress hook does this for
// data segments; here it holds for every update, since the rings are small),
// counting a bind the app thread has yet to add to some of them.
func (w *tableModelWorld) fits(size int) bool {
	if w.pending != nil {
		size += bindBytes
	}
	for _, l := range w.prim.links {
		if 64+l.Bytes()+int64(size) > modelRingBytes {
			return false
		}
	}
	return true
}

// pick returns a random connection matching ok, or nil.
func (w *tableModelWorld) pick(ok func(*modelConn) bool) *modelConn {
	var cands []*modelConn
	for _, mc := range w.conns {
		if ok(mc) {
			cands = append(cands, mc)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[w.rng.Intn(len(cands))]
}

func live(mc *modelConn) bool { return !mc.gone }

// accepted reports whether every backup has applied the connection's bind:
// only then can a replayed application send on it or close it.
func (w *tableModelWorld) accepted(mc *modelConn) bool {
	if mc.bound == 0 || w.pending == mc {
		return false
	}
	for _, sec := range w.secs {
		if sec.table.binds[mc.bound] == nil {
			return false
		}
	}
	return true
}

func (w *tableModelWorld) do() {
	rng, p := w.rng, w.prim
	switch op := rng.Intn(100); {
	case op < 14:
		key := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 40000 + rng.Intn(6)}
		prev := w.byKey[key]
		if prev != nil && (!prev.gone || w.pending == prev) || !w.fits(connMetaBytes) {
			return // the four-tuple is in use, or its bind is still on its way
		}
		n := 0
		for _, mc := range w.conns {
			if mc.key == key {
				n++
			}
		}
		mc := &modelConn{key: key, iss: uint64(rng.Intn(1 << 20)), irs: uint64(rng.Intn(1 << 20))}
		c, err := w.stack(n).Restore(tcpstack.ConnSnapshot{LocalPort: 80,
			Remote: tcpstack.Addr{Host: key.RemoteHost, Port: key.RemotePort},
			ISS:    mc.iss, IRS: mc.irs, SndUna: mc.iss + 1, RcvNxt: mc.irs + 1})
		if err != nil {
			w.t.Fatal(err)
		}
		mc.conn = c
		p.onEstablished(c)
		w.conns = append(w.conns, mc)
		w.byKey[key] = mc
		w.mut += 64
		if prev != nil {
			w.reuses++
		}
	case op < 40:
		mc, n := w.pick(func(mc *modelConn) bool { return live(mc) && !mc.peerFin }), 1+rng.Intn(300)
		if mc == nil || !w.fits(dataInBytes+n) {
			return
		}
		data := make([]byte, n)
		rng.Read(data)
		p.onDataIn(mc.conn, data)
		mc.in = append(mc.in, data...)
		w.mut += uint64(n)
	case op < 52:
		mc := w.pick(live)
		if mc == nil || !w.fits(ackOutBytes) {
			return
		}
		acked := uint64(max(0, int64(mc.acked)+rng.Int63n(300)-80)) // stale now and then
		p.onAckIn(mc.conn, acked)
		if acked > mc.acked {
			mc.acked = acked
			w.mut += 8
		}
	case op < 56:
		mc := w.pick(func(mc *modelConn) bool { return live(mc) && !mc.peerFin })
		if mc == nil || !w.fits(peerFinBytes) {
			return
		}
		p.onPeerFin(mc.conn)
		mc.peerFin = true
		w.mut++
	case op < 63:
		mc := w.pick(live)
		if mc == nil || !w.fits(goneBytes) {
			return
		}
		p.onReaped(mc.conn)
		mc.gone = true
		w.mut++
	case op < 69:
		// Accept: gone or not, but the latest incarnation of its four-tuple.
		mc := w.pick(func(mc *modelConn) bool { return mc.bound == 0 && w.byKey[mc.key] == mc })
		if mc == nil || w.pending != nil || !w.fits(bindBytes) {
			return
		}
		w.pending = mc
		w.bindQ.WakeAll(0)
	case op < 74:
		mc := w.pick(func(mc *modelConn) bool { return w.accepted(mc) && !mc.appClosed })
		if mc == nil {
			return
		}
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		for _, sec := range w.secs {
			sec.table.binds[mc.bound].appendOut(data)
		}
		mc.out = append(mc.out, data...)
		w.sends, w.sending = append(w.sends, modelSend{mc.conn, data}), w.sending+1
		w.bindQ.WakeAll(0)
	case op < 77:
		mc := w.pick(func(mc *modelConn) bool { return w.accepted(mc) && !mc.appClosed })
		if mc == nil {
			return
		}
		for _, sec := range w.secs {
			sec.table.binds[mc.bound].appClosed = true
		}
		mc.appClosed = true
	case op < 87:
		for _, l := range p.links {
			had := l.Len()
			l.TryFlush()
			if had > 0 && l.Len() == had {
				w.refused++
			}
		}
	case op < 98:
		w.receive(rng.Intn(len(w.secs)), 1+rng.Intn(6))
	default:
		w.drain()
	}
}

// receive applies up to max delivered updates (all when max <= 0) on backup i.
func (w *tableModelWorld) receive(i, max int) {
	for n := 0; max <= 0 || n < max; n++ {
		m, ok := w.rings[i].TryRecv()
		if !ok {
			return
		}
		if m.Kind == syncDataIn && m.W[1] != 0 {
			w.merged++
		}
		w.secs[i].apply(m)
	}
}

// attach adds a third backup mid-program, seeded and attached in one
// instant, and replays what the application did on the connections it had
// accepted — what a backup replaying from the seed regenerates.
func (w *tableModelWorld) attach() {
	ring := w.fab.NewRing("sync-2", 0, modelRingBytes)
	sec := w.seeded(ring, nil)
	w.prim.AttachRing(ring)
	w.rings, w.secs = append(w.rings, ring), append(w.secs, sec)
}

// seeded seeds a backup from a snapshot and replays from the send cursors
// cut (nil: from the start), regenerating only the output after them.
func (w *tableModelWorld) seeded(ring *shm.Ring, cut []SendCursor) *Secondary {
	sec := NewSecondary(w.k, ring, DefaultCosts())
	sec.Seed(w.prim.SnapshotState(cut))
	sec.SeedOutBase(cut)
	from := make(map[uint64]uint64)
	for _, c := range cut {
		from[c.ID] = c.Sent
	}
	for _, mc := range w.conns {
		if mc.bound != 0 {
			lc := sec.table.binds[mc.bound]
			lc.appendOut(mc.out[from[mc.bound]:])
			lc.appClosed = mc.appClosed
		}
	}
	return sec
}

// drain runs until every update is on every ring and every backup has
// applied it, then checks every table against the model.
func (w *tableModelWorld) drain() {
	w.drains++
	for round := 0; ; round++ {
		for _, l := range w.prim.links {
			l.TryFlush()
		}
		if err := w.s.RunFor(10 * time.Microsecond); err != nil {
			w.t.Fatal(err)
		}
		for i := range w.secs {
			w.receive(i, 0)
		}
		quiet := w.pending == nil && w.sending == 0
		for i, l := range w.prim.links {
			quiet = quiet && l.Len() == 0 && l.synced == w.prim.enqueued && w.rings[i].InFlight() == 0 && w.rings[i].Len() == 0
		}
		if quiet {
			break
		}
		if round == 1000 {
			w.t.Fatalf("step %d: the sync stream does not drain", w.step)
		}
	}
	w.check()
	w.promote(w.seeded(w.fab.NewRing("throwaway", 0, modelRingBytes), nil))
	for _, c := range w.cut {
		if mc := w.conns[w.binds[c.ID-1].Conn]; mc.acked < c.Sent && !(mc.gone && mc.appClosed) {
			w.gaps++
		}
	}
	w.promote(w.seeded(w.fab.NewRing("epoch", 0, modelRingBytes), w.cut))
	w.cut = w.cut[:0]
	for _, mc := range w.conns {
		if mc.bound != 0 {
			w.cut = append(w.cut, SendCursor{ID: mc.bound, Sent: uint64(len(mc.out))})
		}
	}
}

// want is the model's snapshot.
func (w *tableModelWorld) want() StateSnap {
	snap := StateSnap{Conns: []ConnSnap{}, Binds: append([]BindSnap{}, w.binds...)}
	for _, mc := range w.conns {
		snap.Conns = append(snap.Conns, ConnSnap{Key: mc.key, ISS: mc.iss, IRS: mc.irs,
			In: mc.in, Acked: mc.acked, PeerFin: mc.peerFin, Gone: mc.gone})
	}
	return snap
}

// diff names the first record or bind where got and want disagree.
func diff(got, want StateSnap) string {
	for i := 0; i < max(len(got.Conns), len(want.Conns)); i++ {
		if i >= len(got.Conns) || i >= len(want.Conns) {
			return fmt.Sprintf("%d records, model %d", len(got.Conns), len(want.Conns))
		}
		if g, m := got.Conns[i], want.Conns[i]; !reflect.DeepEqual(g, m) {
			g.In, m.In = nil, nil
			return fmt.Sprintf("record %d: %+v with %d input bytes; model %+v with %d", i, g, len(got.Conns[i].In), m, len(want.Conns[i].In))
		}
	}
	if !reflect.DeepEqual(got.Binds, want.Binds) {
		return fmt.Sprintf("binds %v, model %v", got.Binds, want.Binds)
	}
	return ""
}

func (w *tableModelWorld) check() {
	want := w.want()
	tables := []*ConnTable{w.prim.table}
	for _, sec := range w.secs {
		tables = append(tables, sec.table)
	}
	for i, tab := range tables {
		if d := diff(tab.snapshot(), want); d != "" {
			w.t.Fatalf("step %d: table %d (0 is the primary's): %s", w.step, i, d)
		}
		if tab.Footprint() != want.Bytes() {
			w.t.Fatalf("step %d: table %d footprint %d, model %d", w.step, i, tab.Footprint(), want.Bytes())
		}
	}
	if w.prim.table.Dirtied() != w.mut {
		w.t.Fatalf("step %d: primary dirtied %d bytes, model %d", w.step, w.prim.table.Dirtied(), w.mut)
	}
}

// promote promotes a backup into a fresh stack: it restores the latest
// incarnation of every four-tuple unless it is gone and the application
// closed it, with the cursors the model gives.
func (w *tableModelWorld) promote(sec *Secondary) {
	restored, err := sec.Promote(tcpstack.New(w.k, "server", tcpstack.DefaultParams()))
	if err != nil {
		w.t.Fatalf("step %d: %v", w.step, err)
	}
	i := 0
	for _, mc := range w.conns {
		if mc.gone && mc.appClosed || w.byKey[mc.key] != mc {
			continue
		}
		if i >= len(restored) {
			w.t.Fatalf("step %d: %d connections restored, model wants %v among more", w.step, len(restored), mc.key)
		}
		got := restored[i].Snapshot()
		i++
		una := min(mc.acked, uint64(len(mc.out)))
		rcvNxt := mc.irs + 1 + uint64(len(mc.in))
		if mc.peerFin {
			rcvNxt++
		}
		if got.RcvNxt != rcvNxt || got.SndUna != mc.iss+1+una || !bytes.Equal(got.RcvData, mc.in) || !bytes.Equal(got.SndData, mc.out[una:]) {
			w.t.Fatalf("step %d: %v restored RcvNxt %d SndUna %d with %d/%d bytes; model %d, %d, %d/%d",
				w.step, mc.key, got.RcvNxt, got.SndUna, len(got.RcvData), len(got.SndData), rcvNxt, mc.iss+1+una, len(mc.in), len(mc.out)-int(una))
		}
	}
	if i != len(restored) {
		w.t.Fatalf("step %d: %d connections restored, model wants %d", w.step, len(restored), i)
	}
}

func runTableProgram(t *testing.T, seed int64, steps int) *tableModelWorld {
	w := newTableModelWorld(t, seed)
	defer w.s.Shutdown()
	for w.step = 0; w.step < steps; w.step++ {
		if w.step == steps/3 {
			w.attach()
		}
		w.do()
		if err := w.s.RunFor(time.Duration(w.rng.Intn(int(20 * time.Microsecond)))); err != nil {
			t.Fatal(err)
		}
	}
	w.drain()
	for _, sec := range w.secs {
		w.promote(sec)
	}
	return w
}

// TestBackupStateMatchesPrimary is the FT-TCP reference model: seeded random
// programs of stack callbacks — establish, data-in, ack-out (advancing and
// stale; merged into the next data-in of its connection while pending),
// peer FIN, reap, bind (after a reap too), four-tuple reuse — and
// of the replayed application's sends and closes, over a primary streaming
// to two backups on rings small enough to refuse flushes, with a third
// backup seeded from a snapshot and attached mid-program. After every drain
// each backup's table equals the primary's and the model's, record for
// record, byte for byte and bind for bind; the primary's dirty count and
// every footprint equal the model's accounting; and a backup seeded from the
// snapshot promotes into a fresh stack exactly the latest incarnation of each
// four-tuple, unless it is both reaped and closed by the application, at the
// model's cursors — replaying the output from the start, or, seeded as an
// epoch checkpoint is, from the send cursors of the previous drain, the
// snapshot carrying the unacknowledged output written before them from the
// primary's stack. At the end the three live backups are promoted the same
// way.
func TestBackupStateMatchesPrimary(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			w := runTableProgram(t, seed, 4000)
			if w.reuses < 20 || w.refused < 20 || w.merged < 20 || w.gaps < 20 {
				t.Errorf("program exercised too little: %d four-tuple reuses, %d refused flushes, %d merged updates applied, %d cursor gaps; want 20 of each",
					w.reuses, w.refused, w.merged, w.gaps)
			}
			t.Logf("%d connections, %d binds, %d reuses, %d refused flushes, %d merged updates applied, %d cursor gaps, %d drains",
				len(w.conns), len(w.binds), w.reuses, w.refused, w.merged, w.gaps, w.drains)
		})
	}
}
