package tcprep

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/streambuf"
	"repro/internal/tcpstack"
)

// syncWorld is a streaming Primary, an established connection of its stack
// and the Secondary at the other end of the sync ring, whose pull loop the
// test plays itself.
type syncWorld struct {
	sim  *sim.Simulation
	ring *shm.Ring
	prim *Primary
	sec  *Secondary
	conn *tcpstack.Conn
	lc   *LogicalConn
	buf  []shm.Message
	got  []byte // the last input the backup's record gathered
}

func newSyncWorld(tb testing.TB) *syncWorld { return newSyncWorldRing(tb, 1<<20) }

// newSyncWorldRing is newSyncWorld over a sync ring of the given capacity.
func newSyncWorldRing(tb testing.TB, ringBytes int64) *syncWorld {
	tb.Helper()
	s := sim.New(1)
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "primary", Params: kernel.DefaultParams()})
	if err != nil {
		tb.Fatal(err)
	}
	w := &syncWorld{sim: s, ring: shm.NewFabric(s, time.Microsecond).NewRing("tcprep.sync", 0, ringBytes)}
	stack := tcpstack.New(k, "server", tcpstack.DefaultParams())
	w.prim = NewPrimary(replication.NewLive("ftns", k), stack, PrimaryConfig{Syncs: []*shm.Ring{w.ring}})
	w.sec = NewSecondary(k, w.ring, SecondaryConfig{DeferPull: true})
	w.conn, err = stack.Restore(tcpstack.ConnSnapshot{LocalPort: 80,
		Remote: tcpstack.Addr{Host: "client", Port: 40000}, ISS: 1000, IRS: 2000, SndUna: 1001, RcvNxt: 2001})
	if err != nil {
		tb.Fatal(err)
	}
	w.prim.onEstablished(w.conn)
	w.deliver(tb)
	if w.lc = w.sec.table.byKey[keyOf(w.conn)]; w.lc == nil || w.lc.iss != 1000 || w.lc.irs != 2000 {
		tb.Fatalf("connection not announced: %+v", w.lc)
	}
	return w
}

// deliver flushes what the primary buffered, lets it cross the ring and
// applies it on the secondary.
func (w *syncWorld) deliver(tb testing.TB) {
	w.prim.flushForCommit()
	if err := w.sim.RunFor(10 * time.Microsecond); err != nil {
		tb.Fatal(err)
	}
	if w.ring.Len() == 0 {
		tb.Fatal("nothing crossed the sync ring")
	}
	w.buf = w.ring.RecvBatchInto(nil, w.buf[:0], 0) // never blocks: the ring is not empty
	for _, m := range w.buf {
		w.sec.apply(m)
	}
}

func (w *syncWorld) ackOut(tb testing.TB, acked uint64) {
	w.prim.onAckIn(w.conn, acked)
	w.prim.onAckIn(w.conn, acked+1) // coalesces into the pending entry
	w.deliver(tb)
	if w.lc.acked != acked+1 {
		tb.Fatalf("ack watermark %d, want %d", w.lc.acked, acked+1)
	}
}

func (w *syncWorld) dataIn(tb testing.TB, data []byte) {
	w.prim.onDataIn(w.conn, data)
	w.deliver(tb)
	n := w.lc.in.Len()
	if w.got = w.lc.in.AppendTo(w.got[:0], n-len(data), n); string(w.got) != string(data) {
		tb.Fatalf("synced input %q, want %q", w.got, data)
	}
	w.replay(tb, data)
}

// replay is the backup application's replayed read of the synced bytes it
// has not read yet, which must be want. It never blocks — the bytes are
// there — so it needs no task.
func (w *syncWorld) replay(tb testing.TB, want []byte) {
	if got := w.lc.read(nil, w.lc.in.Len()-w.lc.inRead); string(got) != string(want) {
		tb.Fatalf("replayed read %q, want %q", got, want)
	}
}

// TestSyncUpdatesAllocateNothing: a per-segment update — sync id and
// scalars in the message's words, the connection's key never boxed —
// crosses trySync, the pending buffer, the flush, the ring and the
// secondary's apply without allocating, and the backup's replayed read of
// the synced bytes lends them from its record without allocating either. A
// data-in update carries the view of the primary's retained copy: the only
// allocations left are the tapes' chunks, one per tapeMax bytes retained.
func TestSyncUpdatesAllocateNothing(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	acked, data := uint64(0), []byte("GET / HTTP/1.1\r\n\r\n")
	ack := func() { acked += 10; w.ackOut(t, acked) }
	in := func() { w.dataIn(t, data) }
	ack()
	in()
	if n := testing.AllocsPerRun(100, ack); n != 0 {
		t.Errorf("an ack-out update allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, in); n != 0 {
		t.Errorf("a data-in update and its replayed read allocate %.1f times, want 0", n)
	}
	w.prim.onDataIn(w.conn, data)
	w.deliver(t)
	reread := func() { w.lc.inRead = w.lc.in.Len() - len(data); w.replay(t, data) }
	if n := testing.AllocsPerRun(100, reread); n != 0 {
		t.Errorf("a replayed read on a warm record allocates %.1f times, want 0", n)
	}
	if w.prim.SyncCoalesced == 0 || w.sec.Updates == 0 {
		t.Errorf("coalesced %d, applied %d", w.prim.SyncCoalesced, w.sec.Updates)
	}
}

// TestAnnouncementsAllocateNothing: a connection's announcement and its
// socket binding carry the four-tuple as a reference to the table record's
// own key — immutable, and kept as long as the table — so announcing a
// connection the table holds, and binding it from the application's task,
// reach the backup without allocating: nothing is boxed per connection.
func TestAnnouncementsAllocateNothing(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	announce := func() { w.prim.onEstablished(w.conn); w.deliver(t) }
	announce()
	if n := testing.AllocsPerRun(100, announce); n != 0 {
		t.Errorf("an announcement allocates %.1f times, want 0", n)
	}
	bind := -1.0
	w.prim.ns.Start("app", nil, func(th *replication.Thread) {
		rebind := func() {
			w.prim.bindConn(th, 7, w.conn)
			th.Task().Sleep(10 * time.Microsecond) // the flushed bind crosses the ring
			w.buf = w.ring.TryRecvBatchInto(w.buf[:0], 0)
			for _, m := range w.buf {
				w.sec.apply(m)
			}
		}
		rebind()
		bind = testing.AllocsPerRun(100, rebind)
	})
	if err := w.sim.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if bind != 0 {
		t.Errorf("a binding allocates %.1f times, want 0", bind)
	}
	if got := w.sec.table.binds[7]; got != w.lc {
		t.Errorf("binding of socket 7 on the backup = %+v, want the announced connection", got)
	}
}

// TestBindOutlivesReap: the stack hands the application connections it has
// already reaped (reset before the accept), and the primary forgets a sync id
// at reap — so a binding names its connection by four-tuple and reaches the
// backup's bind table whatever became of the id, on a backup that followed
// the connection from its announcement and on one seeded with it already gone.
func TestBindOutlivesReap(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	key := keyOf(w.conn)
	w.prim.onReaped(w.conn)
	w.deliver(t)
	if !w.lc.gone || len(w.sec.bySync) != 0 || len(w.prim.ids) != 0 {
		t.Fatalf("after the reap: gone=%v, backup knows %d ids, primary %d", w.lc.gone, len(w.sec.bySync), len(w.prim.ids))
	}
	w.prim.ns.Start("app", nil, func(th *replication.Thread) { w.prim.bindConn(th, 7, w.conn) })
	if err := w.sim.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	w.deliver(t)
	if got := w.sec.table.binds[7]; got != w.lc {
		t.Errorf("binding of socket 7 on the backup = %+v; want the reaped connection %v", got, key)
	}
	if len(w.prim.ids) != 0 {
		t.Errorf("the binding drew a sync id for a reaped connection")
	}

	seeded := NewSecondary(w.prim.ns.Kernel(), w.ring, SecondaryConfig{DeferPull: true})
	seeded.Seed(StateSnap{Conns: []ConnSnap{{Key: key, ISS: 1000, IRS: 2000, Gone: true}}})
	for _, m := range w.buf {
		seeded.apply(m)
	}
	if got := seeded.table.binds[7]; got == nil || got.key != key || got.iss != 1000 {
		t.Errorf("seeded backup: binding of socket 7 = %+v; want %v on the seeded connection", got, key)
	}
}

// TestReusedFourTupleStartsFreshRecord: a client reuses a four-tuple whose
// connection was reaped (its ephemeral ports wrap round). The new connection
// gets a record of its own on every side, so the snapshot lists the reaped
// one as gone and the live one under its sync id, a backup seeded from it
// follows the live one's updates, and promotion restores the live one alone.
func TestReusedFourTupleStartsFreshRecord(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	k, key, old := w.prim.ns.Kernel(), keyOf(w.conn), w.lc
	bind := func(id uint64, c *tcpstack.Conn) {
		w.prim.ns.Start("app", nil, func(th *replication.Thread) { w.prim.bindConn(th, id, c) })
		if err := w.sim.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	w.prim.onDataIn(w.conn, []byte("old request"))
	w.prim.onAckIn(w.conn, 500)
	bind(1, w.conn)
	w.deliver(t)
	old.appClosed = true // the replayed application closes its socket
	w.prim.onPeerFin(w.conn)
	w.prim.onReaped(w.conn)
	w.deliver(t)

	// The same four-tuple again, in a stack that never held the first.
	c2, err := tcpstack.New(k, "server", tcpstack.DefaultParams()).Restore(tcpstack.ConnSnapshot{LocalPort: 80,
		Remote: tcpstack.Addr{Host: "client", Port: 40000}, ISS: 3000, IRS: 4000, SndUna: 3001, RcvNxt: 4001})
	if err != nil {
		t.Fatal(err)
	}
	w.prim.onEstablished(c2)
	w.prim.onDataIn(c2, []byte("NEW"))
	bind(2, c2)
	w.deliver(t)
	lc := w.sec.table.byKey[key]
	if lc == old || lc.iss != 3000 || lc.irs != 4000 || lc.gone || lc.appClosed || lc.peerFin || lc.acked != 0 || string(inBytes(lc)) != "NEW" {
		t.Fatalf("the backup's record of the second connection: %+v with input %q; want a fresh one", lc, inBytes(lc))
	}
	if !old.gone || string(inBytes(old)) != "old request" || w.sec.table.binds[1] != old || w.sec.table.binds[2] != lc {
		t.Errorf("the first connection's record: gone=%v input %q, binds %v; want it gone, its input kept, each bind on its own record",
			old.gone, inBytes(old), w.sec.table.binds)
	}

	snap := w.prim.SnapshotState()
	want := []ConnSnap{
		{Key: key, ISS: 1000, IRS: 2000, In: []byte("old request"), Acked: 500, PeerFin: true, Gone: true},
		{Key: key, ISS: 3000, IRS: 4000, Sync: w.prim.ids[key], In: []byte("NEW")},
	}
	if !reflect.DeepEqual(snap.Conns, want) || w.prim.ids[key] == 0 ||
		!reflect.DeepEqual(snap.Binds, []BindSnap{{ID: 1, Conn: 0}, {ID: 2, Conn: 1}}) {
		t.Fatalf("snapshot %+v; want %+v and each bind on its own record", snap, want)
	}

	seeded := NewSecondary(k, shm.NewFabric(w.sim, time.Microsecond).NewRing("seeded", 0, 1<<20), SecondaryConfig{DeferPull: true})
	seeded.Seed(snap)
	w.prim.onDataIn(c2, []byte(" MORE"))
	w.deliver(t)
	for _, m := range w.buf {
		seeded.apply(m)
	}
	for _, sec := range []*Secondary{w.sec, seeded} {
		conns, err := sec.Promote(tcpstack.New(k, "server", tcpstack.DefaultParams()))
		if err != nil || len(conns) != 1 {
			t.Fatalf("promotion restored %d connections, %v; want the live one", len(conns), err)
		}
		if got := conns[0].Snapshot(); got.RcvNxt != 4001+uint64(len("NEW MORE")) || got.SndUna != 3001 || string(got.RcvData) != "NEW MORE" {
			t.Errorf("restored RcvNxt %d SndUna %d input %q; want %d, 3001, %q", got.RcvNxt, got.SndUna, got.RcvData, 4001+len("NEW MORE"), "NEW MORE")
		}
	}
}

// BenchmarkSyncUpdate is one connection's steady state on the sync ring: an
// ack-out and a data-in update per iteration, flushed, carried and applied.
// Both records retain every input byte, one tapeMax chunk at a time; every
// 8 MiB they start over on fresh tapes, which keeps the benchmark's heap
// bounded and costs what retaining costs.
func BenchmarkSyncUpdate(b *testing.B) {
	w := newSyncWorld(b)
	defer w.sim.Shutdown()
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			for _, t := range []*ConnTable{w.prim.table, w.sec.table} {
				lc := t.byKey[keyOf(w.conn)]
				lc.in, lc.inRead = streambuf.Tape{}, 0
				lc.in.Init(&t.slab)
			}
		}
		w.prim.onAckIn(w.conn, uint64(i))
		w.prim.onDataIn(w.conn, data)
		w.deliver(b)
	}
}

// TestPromoteMidBatchAppliesEveryUpdate: one sync batch — a connection's
// announcement, then two data-in updates of three bytes — lands on a
// backup whose puller pays syncCost per update before applying it, and the
// backup is promoted 40 µs later, when the puller has applied one and is
// paying for the second. The two it took off the ring and had not applied
// are the promotion's to apply: all six input bytes reach the restored
// connection.
func TestPromoteMidBatchAppliesEveryUpdate(t *testing.T) {
	s := sim.New(1)
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition("secondary", 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kernel.Boot(part, kernel.Config{Name: "secondary", Params: kernel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	ring := shm.NewFabric(s, time.Microsecond).NewRing("tcprep.sync", 0, 1<<20)
	sec := NewSecondary(sk, ring, SecondaryConfig{})
	key := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 40000}
	meta := syncMessage(syncConnMeta, connMetaBytes, 1, 1000, 2000)
	meta.Ref = &key
	batch := []shm.Message{meta}
	for _, in := range []string{"abc", "def"} {
		m := syncMessage(syncDataIn, dataInBytes+len(in), 1, 0, 0)
		m.Data = []byte(in)
		batch = append(batch, m)
	}
	if !ring.TrySendBatch(batch) {
		t.Fatal("ring refused the batch")
	}
	var restored []*tcpstack.Conn
	ring.OnDelivered(func() {
		s.Schedule(40*time.Microsecond, func() {
			if sec.Updates != 1 {
				t.Errorf("promoted after %d updates applied, want 1: the promotion must land mid-batch", sec.Updates)
			}
			if restored, err = sec.Promote(tcpstack.New(sk, "server", tcpstack.DefaultParams())); err != nil {
				t.Error(err)
			}
		})
	})
	if err := s.RunUntil(sim.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if sec.Updates != 3 || sec.DataBytes != 6 || len(restored) != 1 {
		t.Fatalf("promotion applied %d of 3 updates and %d of 6 input bytes, restored %d connections", sec.Updates, sec.DataBytes, len(restored))
	}
	if in := inBytes(sec.table.byKey[key]); string(in) != "abcdef" {
		t.Errorf("restored connection's input %q, want %q", in, "abcdef")
	}
}
