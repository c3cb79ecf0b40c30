package tcprep

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// flushes is what one flush leaves behind: a ring transfer, a SyncFlushes
// count and a tcprep.sync.batch sample.
type flushes struct{ transfers, counted, sampled int64 }

func (w *syncWorld) flushes() flushes {
	return flushes{w.ring.Stats().Messages, w.prim.SyncFlushes, w.prim.hSyncBatch.Count()}
}

func (f flushes) plus(n int64) flushes { return flushes{f.transfers + n, f.counted + n, f.sampled + n} }

// TestSyncDeadlinePublishesOnce: a partial batch of sync updates is
// published exactly FlushInterval after its first entry, once, by an event
// — no process is switched in; a sync barrier in the deadline's own instant,
// on either side of it, still makes one transfer and one sample; and a
// deadline that runs out on a dropped ring publishes nothing.
func TestSyncDeadlinePublishesOnce(t *testing.T) {
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	w.prim.Instrument(nil, obs.NewRegistry())
	interval := w.prim.cfg.FlushInterval
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
	switched := 0
	w.sim.OnSwitch = func(sim.Time, string) { switched++ }
	run(start.Add(interval))
	w.sim.OnSwitch = nil
	if got := w.flushes(); got != before.plus(1) || switched != 0 {
		t.Fatalf("at the deadline: %+v with %d process switches, want %+v with none", got, switched, before.plus(1))
	}
	run(start.Add(time.Millisecond))
	if got := w.flushes(); got != before.plus(1) {
		t.Errorf("after a quiet millisecond: %+v, want %+v (published once)", got, before.plus(1))
	}

	// A barrier already queued for the deadline's instant runs before the
	// deadline expires; one scheduled from that instant runs after the flush.
	for _, hops := range []int{0, 3} {
		before, start = w.flushes(), w.sim.Now()
		barrier := func() { w.prim.syncBarrier(func() {}) }
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

	before, start = w.flushes(), w.sim.Now()
	w.prim.onAckIn(w.conn, 30)
	link := w.prim.links[0]
	w.prim.DropRing(0)
	run(start.Add(time.Millisecond))
	w.prim.deadlineFired(link) // expiry
	w.prim.deadlineFired(link) // and its hop, whatever the event's state
	if got := w.flushes(); got != before {
		t.Errorf("after DropRing: %+v, want nothing published (%+v)", got, before)
	}
}

// TestSyncSpillKeepsItsPlace: with a 2 KiB sync ring a buffer whose deadline
// finds the ring full goes to the spill server, which claims its FIFO
// ticket; an update that arrives while it waits is published behind it.
func TestSyncSpillKeepsItsPlace(t *testing.T) {
	w := newSyncWorldRing(t, 2<<10)
	defer w.sim.Shutdown()
	w.prim.onDataIn(w.conn, make([]byte, 1500))
	w.prim.flushForCommit() // 1596 of 2048 bytes taken, no consumer
	w.prim.onDataIn(w.conn, make([]byte, 600))
	if err := w.sim.RunFor(w.prim.cfg.FlushInterval + 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if w.prim.spillQ.Len() != 0 || w.ring.Stats().ReserveWaits != 1 {
		t.Fatalf("after the deadline: spill server parked at home = %v, %d reservations waiting; want it blocked on the ring",
			w.prim.spillQ.Len() != 0, w.ring.Stats().ReserveWaits)
	}
	w.prim.onPeerFin(w.conn)
	released := false
	w.prim.syncBarrier(func() { released = true })
	if released {
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
	if !released || w.prim.spillQ.Len() != 1 {
		t.Errorf("barrier released = %v, spill server parked at home = %v; want both once the ring drained", released, w.prim.spillQ.Len() == 1)
	}
}

// TestDroppedRingUnblocksSyncSpillServer: the backup dies while the spill
// server is parked in SendBatch on its full sync ring; the drain releases
// it and it goes back to its own queue, and held output is let go.
func TestDroppedRingUnblocksSyncSpillServer(t *testing.T) {
	w := newSyncWorldRing(t, 2<<10)
	defer w.sim.Shutdown()
	w.prim.onDataIn(w.conn, make([]byte, 1500))
	w.prim.flushForCommit()
	w.prim.onDataIn(w.conn, make([]byte, 600))
	released := false
	w.prim.syncBarrier(func() { released = true }) // refused: straight to the spill server
	if err := w.sim.RunFor(10 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if released || w.ring.Stats().ReserveWaits != 1 {
		t.Fatalf("barrier released = %v, %d reservations waiting; want output held behind a blocked spill server", released, w.ring.Stats().ReserveWaits)
	}
	w.prim.DropRing(0)
	if err := w.sim.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !released || w.prim.spillQ.Len() != 1 || w.prim.Streaming() {
		t.Errorf("barrier released = %v, spill server parked at home = %v, streaming = %v; want true, true, false",
			released, w.prim.spillQ.Len() == 1, w.prim.Streaming())
	}
}
