package bench

import "testing"

// fabricTestReport is the sweep as checked in (an eighth of a second): all
// three workloads, both modes.
func fabricTestReport(t *testing.T) Report {
	t.Helper()
	r, err := fabric(1, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFabricSenderBlocking is the sender-path acceptance criterion: at 8
// producers the reserve/commit path must admit the raw traffic without any
// sender ever parking.
func TestFabricSenderBlocking(t *testing.T) {
	r := fabricTestReport(t)
	free := mustPoint(t, r, "mode", "lockfree", "workload", "raw", "threads", 8, "batch_tuples", fabricBatch)
	t.Logf("raw 8 producers: wait=%.1fms (%v reserve waits)", free.Value("send_wait_ms"), free.Value("reserve_waits"))
	if free.Value("reserve_waits") != 0 || free.Value("send_wait_ms") > 0 {
		t.Errorf("lock-free raw path blocked (%v reserve waits, %.3fms): ample ring should admit every claim",
			free.Value("reserve_waits"), free.Value("send_wait_ms"))
	}

	// The replicated sweep must stay a faithful record/replay run in every
	// mode: same tuples per (workload, threads) cell, zero divergences.
	for i := range r.Points {
		p := &r.Points[i]
		if p.Value("divergences") != 0 {
			t.Errorf("%v: %v divergences", p.Labels, p.Value("divergences"))
		}
		if p.Label("workload") == "raw" {
			continue
		}
		ref, err := r.Point("mode", "lockfree", "workload", p.Label("workload"), "threads", p.Label("threads"), "batch_tuples", p.Label("batch_tuples"))
		if err == nil && ref.Value("tuples") != p.Value("tuples") {
			t.Errorf("%v: %v tuples, lockfree saw %v — modes changed the workload", p.Labels, p.Value("tuples"), ref.Value("tuples"))
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
	r := fabricTestReport(t)
	at := func(mode, workload string) *Point {
		return mustPoint(t, r, "mode", mode, "workload", workload, "threads", 8, "batch_tuples", fabricBatch)
	}
	burst, sust, staticSust := at("adaptive", "burst"), at("adaptive", "sustained"), at("lockfree", "sustained")
	vsBestBurst, savings := ratioOf(t, r, "adaptive_vs_best_static_burst"), ratioOf(t, r, "adaptive_msg_savings_burst")
	vsBestSust := ratioOf(t, r, "adaptive_vs_best_static_sustained")
	t.Logf("burst: eff %d->%v, %.2fx of best static transfers, %.1fx fewer than static start",
		fabricBatch, burst.Value("eff_batch_end"), vsBestBurst, savings)
	t.Logf("sustained: eff %d->%v, commit p50 %vns (static start %vns), %.2fx best-static completion",
		fabricBatch, sust.Value("eff_batch_end"), sust.Value("commit_wait_p50_ns"), staticSust.Value("commit_wait_p50_ns"), vsBestSust)

	if v := burst.Value("eff_batch_end"); v <= fabricBatch {
		t.Errorf("burst eff batch ended at %v, want growth above the starting %d", v, fabricBatch)
	}
	if v := sust.Value("eff_batch_end"); v >= fabricBatch {
		t.Errorf("sustained eff batch ended at %v, want shrink below the starting %d", v, fabricBatch)
	}
	if savings < 1.2 {
		t.Errorf("burst transfer savings %.2fx vs static start, want >= 1.2x", savings)
	}
	if vsBestBurst < 0.7 {
		t.Errorf("burst transfers %.2fx of best static, want >= 0.7", vsBestBurst)
	}
	if vsBestSust < 0.95 {
		t.Errorf("sustained completion %.2fx of best static, want >= 0.95", vsBestSust)
	}
	if a, s := sust.Value("commit_wait_p50_ns"), staticSust.Value("commit_wait_p50_ns"); a > s {
		t.Errorf("sustained commit p50 %vns above the static starting batch's %vns: shrinking bought nothing", a, s)
	}
}
