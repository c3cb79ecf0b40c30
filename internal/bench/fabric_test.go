package bench

import "testing"

// TestFabricSenderBlocking is the sender-path acceptance criterion: at 8
// producers the reserve/commit path must admit the raw traffic without any
// sender ever parking.
func TestFabricSenderBlocking(t *testing.T) {
	r, err := fabric(1, false)
	if err != nil {
		t.Fatal(err)
	}
	free := mustPoint(t, r, "workload", "raw", "threads", 8, "batch_tuples", fabricBatch)
	t.Logf("raw 8 producers: wait=%.1fms (%v reserve waits)", free.Value("send_wait_ms"), free.Value("reserve_waits"))
	if free.Value("reserve_waits") != 0 || free.Value("send_wait_ms") > 0 {
		t.Errorf("lock-free raw path blocked (%v reserve waits, %.3fms): ample ring should admit every claim",
			free.Value("reserve_waits"), free.Value("send_wait_ms"))
	}

	// The replicated sweep must stay a faithful record/replay run at every
	// batch size: same tuples per (workload, threads) cell, zero divergences.
	for i := range r.Points {
		p := &r.Points[i]
		if p.Value("divergences") != 0 {
			t.Errorf("%v: %v divergences", p.Labels, p.Value("divergences"))
		}
		if p.Label("workload") == "raw" {
			continue
		}
		ref := mustPoint(t, r, "workload", p.Label("workload"), "threads", p.Label("threads"), "batch_tuples", fabricBatch)
		if ref.Value("tuples") != p.Value("tuples") {
			t.Errorf("%v: %v tuples, batch %d saw %v — the batch size changed the workload", p.Labels, p.Value("tuples"), fabricBatch, ref.Value("tuples"))
		}
	}
}
