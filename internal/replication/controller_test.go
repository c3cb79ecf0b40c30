package replication

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testCtrlConfig is an adaptive configuration: the controller starts at
// batch and moves below the ceiling max (0: the default ceiling).
func testCtrlConfig(batch, max int) Config {
	cfg := DefaultConfig()
	cfg.BatchTuples = batch
	cfg.MaxBatchTuples = max
	if max == 0 {
		cfg.MaxBatchTuples = -1
	}
	return cfg
}

func TestControllerGrowsAdditively(t *testing.T) {
	c := newBatchController(testCtrlConfig(8, 64))
	if c.eff != 8 {
		t.Fatalf("initial eff = %d, want the configured BatchTuples 8", c.eff)
	}
	// One additive step per ctrlGrowAfter consecutive healthy observations.
	for i := 0; i < ctrlGrowAfter; i++ {
		c.observeCommit(false)
	}
	if c.eff != 9 {
		t.Errorf("eff = %d after %d healthy commits, want 9", c.eff, ctrlGrowAfter)
	}
	for i := 0; i < ctrlGrowAfter; i++ {
		c.observeFlush(0)
	}
	if c.eff != 10 {
		t.Errorf("eff = %d after another healthy streak, want 10", c.eff)
	}
}

func TestControllerShrinksMultiplicatively(t *testing.T) {
	c := newBatchController(testCtrlConfig(32, 64))
	c.observeCommit(true)
	if c.eff != 16 {
		t.Errorf("eff = %d after a commit stall, want halved to 16", c.eff)
	}
	// Lag past ctrlLagFactor*eff + ctrlLagSlack is the other shrink signal.
	c.observeFlush(uint64(ctrlLagFactor*c.eff + ctrlLagSlack + 1))
	if c.eff != 8 {
		t.Errorf("eff = %d after excess lag, want halved to 8", c.eff)
	}
	// A shrink resets the healthy streak: three healthies, a stall, then
	// three more must not grow.
	for i := 0; i < ctrlGrowAfter-1; i++ {
		c.observeCommit(false)
	}
	c.observeCommit(true)
	for i := 0; i < ctrlGrowAfter-1; i++ {
		c.observeCommit(false)
	}
	if c.eff != 4 {
		t.Errorf("eff = %d, want 4 (streak reset by the stall, no growth)", c.eff)
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	c := newBatchController(testCtrlConfig(2, 3))
	for i := 0; i < 10*ctrlGrowAfter; i++ {
		c.observeCommit(false)
	}
	if c.eff != 3 {
		t.Errorf("eff = %d after sustained health, want capped at MaxBatchTuples 3", c.eff)
	}
	for i := 0; i < 10; i++ {
		c.observeCommit(true)
	}
	if c.eff != 1 {
		t.Errorf("eff = %d after sustained stalls, want floored at 1", c.eff)
	}
	// At the floor a further shrink is a no-op, and recovery still works.
	for i := 0; i < ctrlGrowAfter; i++ {
		c.observeFlush(0)
	}
	if c.eff != 2 {
		t.Errorf("eff = %d, want recovery to 2 from the floor", c.eff)
	}
}

// TestAdaptiveOffKeepsStaticPolicy: with MaxBatchTuples left alone the
// recorder's controller is pinned at min = max = BatchTuples, and a pinned
// controller is the static policy — a thousand alternating stalls and
// healthy observations leave the effective batch and both step counters
// where they started. The golden shards=1 trace depends on this
// equivalence.
func TestAdaptiveOffKeepsStaticPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchTuples = 8
	_, _, _, rec := newRecorderHarness(t, cfg, 64<<10)
	c := &rec.ctrl
	if c.eff != 8 || c.min != 8 || c.max != 8 {
		t.Fatalf("controller = {eff %d, min %d, max %d}, want pinned at the static BatchTuples 8", c.eff, c.min, c.max)
	}
	reg := obs.NewRegistry()
	c.instrument("ftns", reg)
	if _, ok := reg.Snapshot().Gauge("ftns.ctrl.batch"); ok {
		t.Error("a pinned controller registered its gauges: the default deployment's metric names changed")
	}
	c.cGrow, c.cShrink = reg.Counter("grow"), reg.Counter("shrink")
	for i := 0; i < 1000; i++ {
		c.observeCommit(true)
		c.observeCommit(false)
		c.observeFlush(1 << 20)
		c.observeFlush(0)
	}
	if c.eff != 8 || c.cGrow.Value() != 0 || c.cShrink.Value() != 0 {
		t.Errorf("pinned controller moved: eff %d, grow %d, shrink %d; want 8, 0, 0", c.eff, c.cGrow.Value(), c.cShrink.Value())
	}
}

func TestAdaptiveOnStartsAtStaticBatch(t *testing.T) {
	_, _, _, rec := newRecorderHarness(t, testCtrlConfig(8, 0), 64<<10)
	if rec.ctrl.eff != 8 {
		t.Errorf("effective batch = %d at boot, want the configured BatchTuples 8", rec.ctrl.eff)
	}
	if rec.ctrl.min != 1 || rec.ctrl.max != 32 {
		t.Errorf("controller range = [%d, %d], want [1, max(4*BatchTuples, 32) = 32]", rec.ctrl.min, rec.ctrl.max)
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
			rec.emit(tk, Tuple{GlobalSeq: uint64(i)}.message(0))
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
		rec.emit(tk, Tuple{GlobalSeq: 1}.message(0))
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

// TestRecorderFeedsController: commit stalls reach the controller through
// onStable and shrink the effective batch; the recovery after the ack
// grows it back — the closed loop, driven end to end through the
// recorder rather than the controller API.
func TestRecorderFeedsController(t *testing.T) {
	cfg := testCtrlConfig(8, 64)
	cfg.FlushInterval = 10 * time.Microsecond
	s, log, _, rec := newRecorderHarness(t, cfg, 64<<10)
	rec.kern.Spawn("emitter", func(tk *kernel.Task) {
		rec.emit(tk, Tuple{GlobalSeq: 1}.message(0))
		rec.onStable(func() {}) // watermark unacked: a commit stall
		if rec.ctrl.eff != 4 {
			t.Errorf("effective batch = %d after a commit stall, want halved to 4", rec.ctrl.eff)
		}
	})
	s.Spawn("drain", func(p *sim.Proc) {
		log.Recv(p)
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}
