package bench

import "testing"

// TestBatchSweepReduction is the batching acceptance criterion: on the
// pbzip2-style det-section workload, BatchTuples=8 must cut both mailbox
// messages and total bytes (headers included) by at least 30% versus
// per-tuple streaming, while replaying the identical workload with zero
// divergences.
func TestBatchSweepReduction(t *testing.T) {
	r, err := batching(1, false)
	if err != nil {
		t.Fatal(err)
	}
	base, batched := mustPoint(t, r, "batch_tuples", 1), mustPoint(t, r, "batch_tuples", 8)
	t.Logf("batch=1: %v", base.Values)
	t.Logf("batch=8: %v", batched.Values)

	if base.Value("blocks") != batched.Value("blocks") || base.Value("tuples") != batched.Value("tuples") {
		t.Fatalf("workload not identical: %v/%v blocks, %v/%v tuples",
			base.Value("blocks"), batched.Value("blocks"), base.Value("tuples"), batched.Value("tuples"))
	}
	if base.Value("divergences") != 0 || batched.Value("divergences") != 0 {
		t.Fatalf("divergences: %v unbatched, %v batched", base.Value("divergences"), batched.Value("divergences"))
	}
	if v := batched.Value("msg_pct"); v > 70 {
		t.Errorf("messages only reduced to %.1f%% of unbatched, need <=70%%", v)
	}
	if v := batched.Value("byte_pct"); v > 70 {
		t.Errorf("bytes only reduced to %.1f%% of unbatched, need <=70%%", v)
	}
	if batched.Value("log_batches") == 0 {
		t.Error("no vectored transfers on the log ring")
	}
}
