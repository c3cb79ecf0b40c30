package bench

import "testing"

// fabricTestOpts trims the sweep to its gate-bearing corners so the test
// stays interactive while exercising all three workloads and both modes.
func fabricTestOpts() FabricOpts {
	opts := DefaultFabricOpts()
	opts.Threads = []int{1, 8}
	opts.StaticBatches = []int{1, 32}
	return opts
}

// TestFabricSenderBlocking is the sender-path acceptance criterion: at 8
// producers the reserve/commit path must admit the raw traffic without any
// sender ever parking.
func TestFabricSenderBlocking(t *testing.T) {
	report, err := Fabric(fabricTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	free := report.Find("lockfree", "raw", 8, report.Points[0].BatchTuples)
	if free == nil {
		t.Fatal("raw point missing from the sweep")
	}
	t.Logf("raw 8 producers: wait=%.1fms (%d reserve waits)", free.SendWaitMS, free.ReserveWaits)
	if free.ReserveWaits != 0 || free.SendWaitMS > 0 {
		t.Errorf("lock-free raw path blocked (%d reserve waits, %.3fms): ample ring should admit every claim",
			free.ReserveWaits, free.SendWaitMS)
	}

	// The replicated sweep must stay a faithful record/replay run in every
	// mode: same tuples per (workload, threads) cell, zero divergences.
	for i := range report.Points {
		p := &report.Points[i]
		if p.Divergences != 0 {
			t.Errorf("%s/%s %dt b=%d: %d divergences", p.Mode, p.Workload, p.Threads, p.BatchTuples, p.Divergences)
		}
		if p.Workload == "raw" {
			continue
		}
		if ref := report.Find("lockfree", p.Workload, p.Threads, p.BatchTuples); ref != nil && ref.Tuples != p.Tuples {
			t.Errorf("%s/%s %dt: %d tuples, lockfree saw %d — modes changed the workload",
				p.Mode, p.Workload, p.Threads, ref.Tuples, p.Tuples)
		}
	}
}

// TestFabricAdaptiveController is the batching-controller acceptance
// criterion: the same adaptive configuration must grow on the healthy
// burst workload (approaching the best static batch's transfer count)
// and shrink under sustained commit pressure (approaching the floor,
// cutting commit latency below its static starting batch) — without ever
// losing to the best hand-tuned static setting on completion time.
func TestFabricAdaptiveController(t *testing.T) {
	opts := fabricTestOpts()
	report, err := Fabric(opts)
	if err != nil {
		t.Fatal(err)
	}
	burst := report.Find("adaptive", "burst", 8, opts.BatchTuples)
	sust := report.Find("adaptive", "sustained", 8, opts.BatchTuples)
	staticSust := report.Find("lockfree", "sustained", 8, opts.BatchTuples)
	if burst == nil || sust == nil || staticSust == nil {
		t.Fatal("adaptive points missing from the sweep")
	}
	t.Logf("burst: eff %d->%d, %.2fx of best static transfers, %.1fx fewer than static start",
		opts.BatchTuples, burst.EffBatchEnd, report.AdaptiveVsBestStaticBurst, report.AdaptiveMsgSavingsBurst)
	t.Logf("sustained: eff %d->%d, commit p50 %dus (static start %dus), %.2fx best-static completion",
		opts.BatchTuples, sust.EffBatchEnd, sust.CommitWaitP50/1000, staticSust.CommitWaitP50/1000,
		report.AdaptiveVsBestStaticSustained)

	if burst.EffBatchEnd <= int64(opts.BatchTuples) {
		t.Errorf("burst eff batch ended at %d, want growth above the starting %d", burst.EffBatchEnd, opts.BatchTuples)
	}
	if sust.EffBatchEnd >= int64(opts.BatchTuples) {
		t.Errorf("sustained eff batch ended at %d, want shrink below the starting %d", sust.EffBatchEnd, opts.BatchTuples)
	}
	if report.AdaptiveMsgSavingsBurst < 1.2 {
		t.Errorf("burst transfer savings %.2fx vs static start, want >= 1.2x", report.AdaptiveMsgSavingsBurst)
	}
	if report.AdaptiveVsBestStaticBurst < 0.7 {
		t.Errorf("burst transfers %.2fx of best static, want >= 0.7", report.AdaptiveVsBestStaticBurst)
	}
	if report.AdaptiveVsBestStaticSustained < 0.95 {
		t.Errorf("sustained completion %.2fx of best static, want >= 0.95", report.AdaptiveVsBestStaticSustained)
	}
	if sust.CommitWaitP50 > staticSust.CommitWaitP50 {
		t.Errorf("sustained commit p50 %dns above the static starting batch's %dns: shrinking bought nothing",
			sust.CommitWaitP50, staticSust.CommitWaitP50)
	}
}
