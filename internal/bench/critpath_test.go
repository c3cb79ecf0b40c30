package bench

import "testing"

// TestCritPathShardingMovesBottleneck runs the detshard attribution cells
// and asserts the tentpole's claim end to end: at one shard the pipeline
// stalls behind serial replay dispatch (replay-grant and commit-wait
// carry real time); at four shards those stall totals collapse.
func TestCritPathShardingMovesBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced sweep in -short mode")
	}
	r, err := critPath(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3*6 {
		t.Fatalf("points = %d, want 3 cells of 6 stages", len(r.Points))
	}
	stage := func(shards int, stage string) *Point {
		return mustPoint(t, r, "workload", "detshard", "shards", shards, "stage", stage)
	}
	if n, w := stage(1, "commit-wait").Value("outputs"), stage(detShards, "commit-wait").Value("outputs"); n == 0 || w == 0 {
		t.Fatalf("no committed outputs attributed: narrow=%v wide=%v", n, w)
	}
	for _, name := range []string{"replay-grant", "commit-wait"} {
		n, w := stage(1, name).Value("total_ns"), stage(detShards, name).Value("total_ns")
		if w*4 >= n {
			t.Errorf("%s total: 1 shard %vns vs %d shards %vns; sharding did not collapse the stall", name, n, detShards, w)
		}
	}
	for _, name := range []string{"transfer", "batch-residency"} {
		if stage(1, name).Value("dominant") == 1 {
			t.Errorf("1-shard dominant stage = %s; expected a sequencing/commit stall", name)
		}
	}
}
