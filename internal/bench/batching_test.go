package bench

import "testing"

// TestBatchSweepReduction is the batching acceptance criterion: on both
// workloads, BatchTuples=8 must cut both mailbox messages and total bytes
// (headers included) by at least 30% versus per-tuple streaming, while
// every batch size replays the identical workload with zero divergences.
func TestBatchSweepReduction(t *testing.T) {
	r, err := batching(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workload := range []string{"pbzip2", "detshard"} {
		base := mustPoint(t, r, "batch_tuples", 1, "workload", workload)
		for _, batch := range []int{1, 8, 32} {
			p := mustPoint(t, r, "batch_tuples", batch, "workload", workload)
			t.Logf("%s batch=%d: %v", workload, batch, p.Values)
			if p.Value("blocks") != base.Value("blocks") || p.Value("tuples") != base.Value("tuples") {
				t.Errorf("%s batch %d: workload not identical: %v/%v blocks, %v/%v tuples", workload, batch,
					base.Value("blocks"), p.Value("blocks"), base.Value("tuples"), p.Value("tuples"))
			}
			if p.Value("divergences") != 0 {
				t.Errorf("%s batch %d: %v divergences", workload, batch, p.Value("divergences"))
			}
		}
		batched := mustPoint(t, r, "batch_tuples", 8, "workload", workload)
		if v := batched.Value("msg_pct"); v > 70 {
			t.Errorf("%s: messages only reduced to %.1f%% of unbatched, need <=70%%", workload, v)
		}
		if v := batched.Value("byte_pct"); v > 70 {
			t.Errorf("%s: bytes only reduced to %.1f%% of unbatched, need <=70%%", workload, v)
		}
		if batched.Value("log_batches") == 0 {
			t.Errorf("%s: no vectored transfers on the log ring", workload)
		}
	}
}
