package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testBaselines() Baselines {
	var b Baselines
	b.Tolerance = 0.2
	b.DetShard.CommitWaitSpeedup = 100
	b.DetShard.ReplayLagSpeedup = 5
	b.Fabric.AdaptiveMsgSavingsBurst = 1.5
	b.NWay.CommitWaitSpeedupN3 = 100
	b.Epoch.RejoinSpeedup = 50
	b.Epoch.RetentionSavings = 20
	return b
}

func TestGateEpoch(t *testing.T) {
	b := testBaselines()
	// FlatnessGain is unpinned (zero) in testBaselines: skipped.
	r := EpochReport{RejoinSpeedup: 42, RetentionSavings: 17}
	if v := b.GateEpoch(r); len(v) != 0 {
		t.Fatalf("gate failed within tolerance: %v", v)
	}
	r.RejoinSpeedup = 39 // below the 40 floor
	v := b.GateEpoch(r)
	if len(v) != 1 || !strings.Contains(v[0], "epoch.rejoin_speedup") {
		t.Fatalf("violations = %v, want exactly the rejoin-speedup slip", v)
	}
}

func TestGateNWay(t *testing.T) {
	b := testBaselines()
	if v := b.GateNWay(NWayReport{CommitWaitSpeedupN3: 85}); len(v) != 0 {
		t.Fatalf("gate failed within tolerance: %v", v)
	}
	v := b.GateNWay(NWayReport{CommitWaitSpeedupN3: 79})
	if len(v) != 1 || !strings.Contains(v[0], "nway.commit_wait_speedup_n3") {
		t.Fatalf("violations = %v, want exactly the named commit-wait slip", v)
	}
}

func TestGateDetShardPassesWithinTolerance(t *testing.T) {
	b := testBaselines()
	r := DetShardReport{CommitWaitSpeedup: 85, ReplayLagSpeedup: 4.2}
	if v := b.GateDetShard(r); len(v) != 0 {
		t.Fatalf("gate failed within tolerance: %v", v)
	}
}

func TestGateDetShardFailsPastTolerance(t *testing.T) {
	b := testBaselines()
	r := DetShardReport{CommitWaitSpeedup: 79, ReplayLagSpeedup: 5}
	v := b.GateDetShard(r)
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly the commit-wait slip", v)
	}
	if !strings.Contains(v[0], "commit_wait_p50_speedup") {
		t.Errorf("violation does not name the ratio: %s", v[0])
	}
}

func TestGateSkipsUnpinnedRatios(t *testing.T) {
	b := testBaselines()
	// Sustained/burst fabric ratios are unpinned (zero) in testBaselines:
	// a zero observed value must not trip them.
	r := FabricReport{AdaptiveMsgSavingsBurst: 1.3}
	if v := b.GateFabric(r); len(v) != 0 {
		t.Fatalf("unpinned ratios tripped the gate: %v", v)
	}
	r.AdaptiveMsgSavingsBurst = 1.1 // below the 1.2 floor
	if v := b.GateFabric(r); len(v) != 1 {
		t.Fatalf("violations = %v, want exactly the burst-savings slip", v)
	}
}

func TestLoadBaselinesValidation(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tolerance": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaselines(bad); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"tolerance": 0.25, "detshard": {"commit_wait_p50_speedup": 10}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaselines(good)
	if err != nil {
		t.Fatal(err)
	}
	if b.DetShard.CommitWaitSpeedup != 10 {
		t.Errorf("parsed speedup = %v", b.DetShard.CommitWaitSpeedup)
	}
}

// TestRepoBaselinesLoad: the checked-in baseline file parses and pins
// every headline ratio the gate checks.
func TestRepoBaselinesLoad(t *testing.T) {
	b, err := LoadBaselines("../../goldens/bench-baselines.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"detshard.commit_wait":       b.DetShard.CommitWaitSpeedup,
		"detshard.replay_lag":        b.DetShard.ReplayLagSpeedup,
		"fabric.adaptive_sustained":  b.Fabric.AdaptiveVsBestStaticSustained,
		"fabric.adaptive_burst":      b.Fabric.AdaptiveVsBestStaticBurst,
		"fabric.adaptive_msg_saving": b.Fabric.AdaptiveMsgSavingsBurst,
		"nway.commit_wait":           b.NWay.CommitWaitSpeedupN3,
		"epoch.rejoin_speedup":       b.Epoch.RejoinSpeedup,
		"epoch.retention_savings":    b.Epoch.RetentionSavings,
		"epoch.flatness_gain":        b.Epoch.FlatnessGain,
	} {
		if v <= 0 {
			t.Errorf("%s not pinned", name)
		}
	}
}
