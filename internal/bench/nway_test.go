package bench

import (
	"strconv"
	"testing"
)

// TestNWaySweep runs the replica-set sweep and pins its invariants:
// the workload is identical across quorum settings (same section count,
// zero divergences), the all-replicas rule pays the laggard's delivery lag
// on every commit, and the majority quorum at N=3 keeps the laggard off
// the commit path entirely.
func TestNWaySweep(t *testing.T) {
	t.Parallel()
	r, err := nway(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 7 { // (2,2) + (3,2) + (3,3) + (4,3) + (4,4) + (5,3) + (5,5)
		t.Fatalf("point count = %d, want 7", len(r.Points))
	}
	sections := r.Points[0].Value("sections")
	lagNS := float64(nwayLag.Nanoseconds())
	for _, p := range r.Points {
		if p.Value("sections") != sections {
			t.Errorf("%v: sections = %v, want %v (workload must not vary)", p.Labels, p.Value("sections"), sections)
		}
		if p.Value("divergences") != 0 {
			t.Errorf("%v: %v divergences", p.Labels, p.Value("divergences"))
		}
		if n, _ := strconv.Atoi(p.Label("replicas")); p.Value("live_backups") != float64(n-1) {
			t.Errorf("%v: %v live backups", p.Labels, p.Value("live_backups"))
		}
		mean := p.Value("commit_wait_mean_ns")
		if p.Label("rule") == "all" && mean < lagNS {
			t.Errorf("%v: mean commit wait %vns below the %vns lag", p.Labels, mean, lagNS)
		}
		if p.Label("replicas") == "3" && p.Label("rule") == "majority" && mean >= lagNS {
			t.Errorf("n=3 majority quorum: mean commit wait %vns still pays the laggard's %vns lag", mean, lagNS)
		}
	}
	if v := ratioOf(t, r, "commit_wait_speedup_n3"); v <= 1 {
		t.Errorf("commit-wait speedup at N=3 = %.2f, want > 1", v)
	}
}
