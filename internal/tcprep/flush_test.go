package tcprep

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// flushes is what one flush leaves behind: a ring transfer, a SyncFlushes
// count and a tcprep.sync.batch sample.
type flushes struct{ transfers, counted, sampled int64 }

func (w *syncWorld) flushes() flushes {
	return flushes{w.ring.Stats().Messages, w.prim.SyncFlushes, w.prim.hSyncBatch.Count()}
}

func (f flushes) plus(n int64) flushes { return flushes{f.transfers + n, f.counted + n, f.sampled + n} }

// hold puts a pure ACK of the world's connection through the primary's
// output-commit path as if its stack had sent it: the sync barrier
// force-flushes, and the ACK leaves the gate once every update enqueued
// before it is on the ring (the live namespace commits at once).
func (w *syncWorld) hold() {
	var segs []*tcpstack.Segment
	w.prim.stack.SetEgress(capture{&segs})
	w.conn.Kick()
	w.prim.stack.SetEgress(w.prim)
	w.prim.hold(segs[0])
}

// The outbox's own behaviour — the deadline an event that fires once, the
// no-op after a kill or a kernel death, the spill server's FIFO ticket — is
// checked in internal/shm (TestOutbox*). What stays here is the sync
// stream's: what a flush books, and the barrier that holds output behind it.

// TestSyncDeadlinePublishesOnce: a partial batch of sync updates is
// published FlushInterval after its first entry and booked once — one
// transfer, one SyncFlushes count, one batch sample; and a sync barrier in
// the deadline's own instant, on either side of it, still makes one.
func TestSyncDeadlinePublishesOnce(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	w.prim.Instrument(nil, obs.NewRegistry())
	interval := w.prim.ns.Config().FlushInterval
	run := func(until sim.Time) {
		t.Helper()
		if err := w.sim.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}

	before, start := w.flushes(), w.sim.Now()
	w.prim.onAckIn(w.conn, 10)
	run(start.Add(interval) - 1)
	if got := w.flushes(); got != before {
		t.Fatalf("before the deadline: %+v, want the update still buffered (%+v)", got, before)
	}
	run(start.Add(time.Millisecond))
	if got := w.flushes(); got != before.plus(1) {
		t.Errorf("after a quiet millisecond: %+v, want %+v (published once)", got, before.plus(1))
	}

	// A barrier already queued for the deadline's instant runs before the
	// deadline expires; one scheduled from that instant runs after the flush.
	for _, hops := range []int{0, 3} {
		before, start = w.flushes(), w.sim.Now()
		barrier := w.hold
		for i := 0; i < hops; i++ {
			next := barrier
			barrier = func() { w.sim.Schedule(0, next) }
		}
		if hops == 0 {
			w.sim.Schedule(interval, barrier)
		}
		w.prim.onAckIn(w.conn, uint64(20+hops))
		if hops > 0 {
			w.sim.Schedule(interval, barrier)
		}
		run(start.Add(time.Millisecond))
		if got := w.flushes(); got != before.plus(1) {
			t.Errorf("barrier %d hops behind the deadline's instant: %+v, want %+v (one flush, not two)", hops, got, before.plus(1))
		}
	}
}

// TestSyncSpillKeepsItsPlace: with a 2 KiB sync ring a buffer whose deadline
// finds the ring full goes to the spill server; the sync barrier holds
// output until the server's flush has booked it, and an update that arrives
// while it waits — not merged into the batch already taken — is published
// behind it.
func TestSyncSpillKeepsItsPlace(t *testing.T) {
	w := newSyncWorldRing(t, 2<<10)
	defer w.sim.Shutdown()
	w.prim.onDataIn(w.conn, make([]byte, 1500))
	w.prim.flushForCommit() // 1596 of 2048 bytes taken, no consumer
	w.prim.onDataIn(w.conn, make([]byte, 600))
	if err := w.sim.RunFor(w.prim.ns.Config().FlushInterval + 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if w.ring.Stats().ReserveWaits != 1 {
		t.Fatalf("after the deadline: %d reservations waiting; want the spill server blocked on the ring", w.ring.Stats().ReserveWaits)
	}
	w.prim.onPeerFin(w.conn)
	w.hold()
	if w.prim.held.Len() == 0 {
		t.Fatal("sync barrier released output ahead of updates the ring has not taken")
	}
	var kinds, sizes []int
	w.sim.Spawn("drain", func(p *sim.Proc) {
		for len(kinds) < 3 {
			m := w.ring.Recv(p)
			kinds, sizes = append(kinds, m.Kind), append(sizes, len(m.Data))
		}
	})
	if err := w.sim.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || kinds[0] != syncDataIn || sizes[0] != 1500 || kinds[1] != syncDataIn || sizes[1] != 600 || kinds[2] != syncPeerFin {
		t.Errorf("consumer saw kinds %v with payloads %v; want data-in 1500, data-in 600, peer-fin", kinds, sizes)
	}
	if w.prim.held.Len() != 0 {
		t.Error("barrier still holding output once the ring drained")
	}
}

// TestDroppedRingUnblocksSyncSpillServer: the backup dies while the spill
// server is parked on its full sync ring; the drain releases it, held
// output is let go, and the batch it was carrying is neither put on the dead
// ring nor booked as a flush.
func TestDroppedRingUnblocksSyncSpillServer(t *testing.T) {
	w := newSyncWorldRing(t, 2<<10)
	defer w.sim.Shutdown()
	w.prim.Instrument(nil, obs.NewRegistry())
	w.prim.onDataIn(w.conn, make([]byte, 1500))
	w.prim.flushForCommit()
	w.prim.onDataIn(w.conn, make([]byte, 600))
	w.hold() // refused: straight to the spill server
	if err := w.sim.RunFor(10 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if w.prim.held.Len() == 0 || w.ring.Stats().ReserveWaits != 1 {
		t.Fatalf("%d segments held, %d reservations waiting; want output held behind a blocked spill server", w.prim.held.Len(), w.ring.Stats().ReserveWaits)
	}
	before, payloads := w.flushes(), w.ring.Stats().Payloads
	w.prim.DropRing(0)
	if err := w.sim.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if w.prim.held.Len() != 0 || w.ring.OpenSpans() != 0 || w.prim.Streaming() {
		t.Errorf("%d segments held, %d spans open on the dead ring, streaming = %v; want none, none, false",
			w.prim.held.Len(), w.ring.OpenSpans(), w.prim.Streaming())
	}
	if got := w.flushes(); got != before || w.ring.Stats().Payloads != payloads || w.prim.links[0].synced != w.prim.enqueued {
		t.Errorf("after the drop: %+v with %d payloads on the ring, synced %d of %d; want %+v with %d, and the dead link level with enqueued",
			got, w.ring.Stats().Payloads, w.prim.links[0].synced, w.prim.enqueued, before, payloads)
	}
}

// TestRefusedAnnouncementStaysAhead: a connection established while the sync
// ring is full is announced late, never out of order — the announcement
// waits in the outbox, the connection's own updates queue behind it, and the
// secondary, which looks every update up by an id it must already have been
// told, applies them all.
func TestRefusedAnnouncementStaysAhead(t *testing.T) {
	w := newSyncWorldRing(t, 2<<10)
	defer w.sim.Shutdown()
	w.prim.onDataIn(w.conn, make([]byte, 1500))
	w.prim.flushForCommit() // 1596 of 2048 bytes taken, no consumer
	w.prim.onDataIn(w.conn, make([]byte, 400))
	w.prim.flushForCommit() // refused: the spill server parks on the ring with it
	late, err := w.prim.stack.Restore(tcpstack.ConnSnapshot{LocalPort: 80,
		Remote: tcpstack.Addr{Host: "client", Port: 40001}, ISS: 3000, IRS: 4000, SndUna: 3001, RcvNxt: 4001})
	if err != nil {
		t.Fatal(err)
	}
	w.prim.onEstablished(late)
	w.prim.flushForCommit() // refused again: a ticket waits ahead
	w.prim.onDataIn(late, []byte("hello"))
	w.prim.onPeerFin(late)
	applied := 0
	w.sim.Spawn("apply", func(p *sim.Proc) {
		for {
			w.sec.apply(w.ring.Recv(p))
			applied++
		}
	})
	if err := w.sim.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	lc := w.sec.table.byKey[keyOf(late)]
	if applied != 5 || lc == nil || lc.iss != 3000 || string(inBytes(lc)) != "hello" || !lc.peerFin {
		t.Errorf("%d updates applied, late connection %+v; want 5, announced with its input and its FIN", applied, lc)
	}
}
