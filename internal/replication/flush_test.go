package replication

import (
	"slices"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// flushHarness is newRecorderHarness with the flush histograms registered,
// so a test can count BatchFlush samples beside ring transfers.
func flushHarness(t *testing.T, cfg Config) (*sim.Simulation, *shm.Ring, *Recorder) {
	t.Helper()
	s, log, _, rec := newRecorderHarness(t, cfg, 64<<10)
	rec.instrument("ftns", nil, obs.NewRegistry())
	return s, log, rec
}

// emitN emits n tuples numbered from first, back to back.
func emitN(rec *Recorder, tk *kernel.Task, first, n int) {
	for i := first; i < first+n; i++ {
		rec.emit(tk, Tuple{GlobalSeq: uint64(i)}.message())
	}
}

// The outbox's own behaviour — the deadline an event that fires once, its
// hop, the no-op after a kill or a kernel death, the spill server's FIFO
// ticket — is checked in internal/shm (TestOutbox*). What stays here is the
// recorder's: the zero-copy span in front of the outbox.

// TestDeadlinePublishesPartialBatchOnce: an open span rides the outbox's
// deadline — a partial batch written in place is published exactly
// FlushInterval after its first tuple, once, with one flush sample.
func TestDeadlinePublishesPartialBatchOnce(t *testing.T) {
	cfg := DefaultConfig()
	s, log, rec := flushHarness(t, cfg)
	rec.kern.Spawn("emitter", func(tk *kernel.Task) { emitN(rec, tk, 0, 3) }) // at t = 0
	deadline := sim.Time(cfg.FlushInterval)
	if err := s.RunUntil(deadline - 1); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.Messages != 0 || !rec.replicas[0].span.Open() {
		t.Fatalf("%d transfers before the deadline, span open = %v; want the batch still in its span", st.Messages, rec.replicas[0].span.Open())
	}
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.Messages != 1 || st.Payloads != 3 || rec.stats.LogBatches != 1 || rec.hBatchFill.Count() != 1 {
		t.Errorf("after a quiet second: %d transfers / %d payloads, %d batches, %d flush samples; want 1 / 3, 1, 1",
			st.Messages, st.Payloads, rec.stats.LogBatches, rec.hBatchFill.Count())
	}
}

// TestOversizedMessageGetsItsOwnSpan: an epoch marker larger than what is
// left of the open span's byte budget publishes the tuples written so far
// and takes a span of its own — claiming one without publishing the other
// would jam the ring behind the unpublished reservation. The ring then
// delivers all five messages, in order.
func TestOversizedMessageGetsItsOwnSpan(t *testing.T) {
	s, log, rec := flushHarness(t, DefaultConfig())
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		emitN(rec, tk, 0, 2)
		rec.emit(tk, epochMessage(&EpochMark{Epoch: 1}, 4<<10))
		emitN(rec, tk, 2, 2)
	})
	var got []int
	s.Spawn("drain", func(p *sim.Proc) {
		for range 5 {
			got = append(got, log.Recv(p).Kind)
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if want := []int{msgTuple, msgTuple, msgEpoch, msgTuple, msgTuple}; !slices.Equal(got, want) {
		t.Errorf("the ring delivered kinds %v, want %v", got, want)
	}
}

// spillConfig is a 2 KiB log ring: three full batches of eight (64-byte
// header + 8 x 64) leave 320 bytes, which no further span of eight fits.
func spillConfig() Config {
	cfg := DefaultConfig()
	cfg.LogRingBytes = 2 << 10
	return cfg
}

// TestSpilledBatchKeepsItsPlace: spans and spill keep one order. Tuples
// that find no room for a span spill behind the spans already on the ring;
// while the spilled batch waits for its ticket, later tuples queue behind it
// rather than in a fresh span, and the consumer sees one gapless sequence.
func TestSpilledBatchKeepsItsPlace(t *testing.T) {
	cfg := spillConfig()
	s, log, rec := flushHarness(t, cfg)
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		emitN(rec, tk, 0, 24) // three spans fill the ring
		emitN(rec, tk, 24, 5) // no span fits: spilled, 64 + 5 x 64 > 320 — refused at the deadline too
		tk.Sleep(cfg.FlushInterval + 10*time.Microsecond)
		if log.Stats().ReserveWaits != 1 {
			t.Errorf("after the deadline: %d reservations waiting; want the spill server blocked on the ring", log.Stats().ReserveWaits)
		}
		emitN(rec, tk, 29, 2) // behind the spill server's ticket
	})
	var got []uint64
	s.SpawnAfter("drain", 300*time.Microsecond, func(p *sim.Proc) {
		for len(got) < 31 {
			got = append(got, log.Recv(p).W[wGlobalSeq])
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 31 {
		t.Fatalf("consumer saw %d tuples, want 31", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("tuple %d arrived in position %d: %v", seq, i, got)
		}
	}
}

// flushCounts is everything one log flush books: the ring's traffic, the
// batch count and the two flush samples.
type flushCounts struct {
	ring        shm.Stats
	batches     uint64
	fills, lags int64
}

func countFlushes(rec *Recorder, log *shm.Ring) flushCounts {
	st := log.Stats()
	st.SendWaitNs = 0 // a parked sender's wait is booked when it comes back, published or not
	return flushCounts{st, rec.stats.LogBatches, rec.hBatchFill.Count(), rec.hFlushLag.Count()}
}

// TestKilledBackupUnblocksSpillServer: the backup dies while the spill
// server is parked on its full ring; the drain releases it, and the batch
// it was carrying is neither put on the dead ring nor booked — not as a
// batch, not as a flush sample, not as a lag observation.
func TestKilledBackupUnblocksSpillServer(t *testing.T) {
	cfg := spillConfig()
	s, log, rec := flushHarness(t, cfg)
	done := false
	var before flushCounts
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		emitN(rec, tk, 0, 29)
		tk.Sleep(cfg.FlushInterval + 10*time.Microsecond)
		if log.Stats().ReserveWaits != 1 {
			t.Error("spill server not blocked on the full ring")
		}
		before = countFlushes(rec, log)
		rec.dropReplica(0)
		emitN(rec, tk, 29, 2) // live now: emits nothing, blocks on nothing
		done = true
	})
	if err := s.Run(); err != nil { // to an empty queue
		t.Fatal(err)
	}
	if !done || log.OpenSpans() != 0 {
		t.Errorf("emitter finished = %v, %d spans open on the dead ring; want true and none", done, log.OpenSpans())
	}
	if after := countFlushes(rec, log); after != before {
		t.Errorf("flushes booked after the drop: %+v, before it %+v", after, before)
	}
}

// TestKilledBackupUnblocksCatchup: a rejoining backup dies while the
// catch-up task is parked on its full ring with the history's second chunk.
// The drain releases the task, which stops at once: the batch it was
// carrying is not booked — not as a batch, not as a flush sample, not as a
// lag observation — and, this backup being the last, the recorder's
// degrade leaves the drained ring alone rather than draining it again
// under the released send.
func TestKilledBackupUnblocksCatchup(t *testing.T) {
	cfg := DefaultConfig()
	s, _, _, rec := newRecorderHarness(t, cfg, 64<<10)
	rec.instrument("ftns", nil, obs.NewRegistry())
	rec.dropReplica(0) // degraded: it records on, retaining the history
	fabric := shm.NewFabric(s, time.Microsecond)
	log := fabric.NewRing("log.rejoin", 0, catchupChunkBytes+4<<10) // one chunk and no more
	var before flushCounts
	done := false
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		emitN(rec, tk, 0, 2*catchupChunkBytes/tupleBytes)
		idx := rec.AddReplica(log, fabric.NewRing("acks.rejoin", 1, 64<<10), nil)
		tk.Sleep(time.Millisecond)
		if log.Stats().ReserveWaits != 1 || rec.stats.LogBatches != 1 {
			t.Errorf("%d reservations waiting, %d batches booked; want the catch-up parked on its second chunk",
				log.Stats().ReserveWaits, rec.stats.LogBatches)
		}
		before = countFlushes(rec, log)
		rec.dropReplica(idx)
		done = true
	})
	if err := s.Run(); err != nil { // to an empty queue
		t.Fatal(err)
	}
	after := countFlushes(rec, log)
	if !done || after.batches != before.batches || after.fills != before.fills || after.lags != before.lags {
		t.Errorf("emitter finished = %v; booked after the drop: %+v, before it %+v", done, after, before)
	}
}

// TestBatchOfOneIsSend: at BatchTuples = 1 the recorder's one path — span,
// spill, the outbox's blocking flush — puts on the ring exactly what a bare
// Ring.Send per tuple does: the same transfers, the same bytes, delivered at
// the same instants, including while the emitter is stalled on a full ring.
func TestBatchOfOneIsSend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchTuples = 1
	cfg.LogRingBytes = 1 << 10 // eight 128-byte transfers
	run := func(send func(rec *Recorder, log *shm.Ring, tk *kernel.Task, m shm.Message)) (shm.Stats, []sim.Time) {
		s, log, _, rec := newRecorderHarness(t, cfg, 64<<10)
		var at []sim.Time
		log.OnDelivered(func() { at = append(at, s.Now()) })
		rec.kern.Spawn("emitter", func(tk *kernel.Task) {
			for i := 0; i < 40; i++ {
				m := Tuple{GlobalSeq: uint64(i)}.message()
				if i%5 == 0 {
					m = epochMessage(&EpochMark{Epoch: uint64(i)}, tupleBytes+100)
				}
				send(rec, log, tk, m)
				tk.Sleep(3 * time.Microsecond)
			}
		})
		s.SpawnAfter("drain", 100*time.Microsecond, func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				log.Recv(p)
				p.Sleep(7 * time.Microsecond)
			}
		})
		if err := s.RunUntil(sim.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		return log.Stats(), at
	}
	recSt, recAt := run(func(rec *Recorder, _ *shm.Ring, tk *kernel.Task, m shm.Message) { rec.emit(tk, m) })
	refSt, refAt := run(func(_ *Recorder, log *shm.Ring, tk *kernel.Task, m shm.Message) { log.Send(tk.Proc(), m) })
	if refSt.Messages != 40 || refSt.Batches != 0 || refSt.ReserveWaits == 0 {
		t.Fatalf("reference run: %+v; want 40 single-tuple transfers, some of them stalled", refSt)
	}
	if recSt != refSt {
		t.Errorf("ring stats differ:\n recorder %+v\n Ring.Send %+v", recSt, refSt)
	}
	if len(recAt) != len(refAt) {
		t.Fatalf("%d deliveries through the recorder, %d through Ring.Send", len(recAt), len(refAt))
	}
	for i := range refAt {
		if recAt[i] != refAt[i] {
			t.Fatalf("delivery %d at %v through the recorder, %v through Ring.Send", i, recAt[i], refAt[i])
		}
	}
}

// TestDeadlineForceFlushSameInstant is the regression test for the
// flush-deadline edge: a FlushInterval deadline expiring in the same
// scheduler instant as an output-commit force-flush used to double-send,
// putting an empty batch on the wire. Now whichever path runs second
// finds the span already published and commits nothing — exactly one
// transfer, no zero-tuple flush sample.
func TestDeadlineForceFlushSameInstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchTuples = 8
	cfg.FlushInterval = 50 * time.Microsecond
	s, log, rec := flushHarness(t, cfg)
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		for i := 0; i < 3; i++ {
			rec.emit(tk, Tuple{GlobalSeq: uint64(i)}.message())
		}
		// Sleep to exactly the armed deadline: the deadline and this
		// wake-up land in the same scheduler instant.
		tk.Proc().Sleep(cfg.FlushInterval)
		rec.flushForCommit()
	})
	s.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			log.Recv(p)
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	st := log.Stats()
	if st.Messages != 1 || st.Payloads != 3 {
		t.Errorf("log ring saw %d transfers / %d payloads, want exactly 1 / 3 (no empty double-send)", st.Messages, st.Payloads)
	}
	if rec.stats.LogBatches != 1 || rec.hBatchFill.Count() != 1 {
		t.Errorf("LogBatches = %d with %d flush samples, want 1 and 1 (whichever ran second found nothing to send)",
			rec.stats.LogBatches, rec.hBatchFill.Count())
	}
}

// TestForceFlushPublishesOpenSpan: an output-commit waiter must never
// wait on buffering — flushForCommit publishes the open span in
// scheduler context without blocking.
func TestForceFlushPublishesOpenSpan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchTuples = 16
	cfg.FlushInterval = time.Second // far away: only the force flush fires
	s, log, _, rec := newRecorderHarness(t, cfg, 64<<10)
	released := false
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		rec.emit(tk, Tuple{GlobalSeq: 1}.message())
		rec.onStable(func() { released = true })
	})
	s.Spawn("drain", func(p *sim.Proc) {
		log.Recv(p)
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if log.Stats().Payloads != 1 {
		t.Errorf("log ring saw %d payloads, want the buffered tuple force-flushed", log.Stats().Payloads)
	}
	if !released {
		t.Error("output-commit waiter never released: force flush did not publish the open span")
	}
}
