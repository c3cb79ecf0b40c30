package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Baselines is the checked-in bench-trajectory snapshot
// (goldens/bench-baselines.json): the headline ratios of the detshard and
// fabric sweeps at the time they were last pinned, plus the allowed
// fractional regression. The CI gate re-runs the quick sweeps and fails
// when a ratio falls below baseline*(1-Tolerance) — so a PR that quietly
// erodes the speedups the repo's tentpoles bought is caught at review
// time, not three PRs later.
type Baselines struct {
	// Tolerance is the allowed fractional slip per ratio (0.25 = a ratio
	// may come in 25% under its pinned value before the gate fails).
	// Ratios are simulation-deterministic, so the headroom absorbs
	// intentional re-tuning of workload constants, not host noise.
	Tolerance float64 `json:"tolerance"`

	DetShard struct {
		CommitWaitSpeedup float64 `json:"commit_wait_p50_speedup"`
		ReplayLagSpeedup  float64 `json:"replay_lag_p50_speedup"`
	} `json:"detshard"`

	Fabric struct {
		AdaptiveVsBestStaticSustained float64 `json:"adaptive_vs_best_static_sustained"`
		AdaptiveVsBestStaticBurst     float64 `json:"adaptive_vs_best_static_burst"`
		AdaptiveMsgSavingsBurst       float64 `json:"adaptive_msg_savings_burst"`
	} `json:"fabric"`

	NWay struct {
		CommitWaitSpeedupN3 float64 `json:"commit_wait_speedup_n3"`
	} `json:"nway"`

	Epoch struct {
		RejoinSpeedup    float64 `json:"rejoin_speedup"`
		RetentionSavings float64 `json:"retention_savings"`
		FlatnessGain     float64 `json:"flatness_gain"`
	} `json:"epoch"`
}

// LoadBaselines reads a pinned baseline file.
func LoadBaselines(path string) (Baselines, error) {
	var b Baselines
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.Tolerance <= 0 || b.Tolerance >= 1 {
		return b, fmt.Errorf("%s: tolerance %v out of (0,1)", path, b.Tolerance)
	}
	return b, nil
}

// floor is the lowest acceptable value for a pinned ratio.
func (b *Baselines) floor(pinned float64) float64 {
	return pinned * (1 - b.Tolerance)
}

// check appends a violation when got has slipped below the pinned
// ratio's floor. A zero pinned value means "not pinned": skipped, so
// baselines can be introduced one ratio at a time.
func (b *Baselines) check(violations []string, name string, got, pinned float64) []string {
	if pinned == 0 {
		return violations
	}
	if floor := b.floor(pinned); got < floor {
		violations = append(violations,
			fmt.Sprintf("%s = %.3f, below floor %.3f (pinned %.3f, tolerance %.0f%%)",
				name, got, floor, pinned, 100*b.Tolerance))
	}
	return violations
}

// GateDetShard checks a detshard report against the pinned baselines and
// returns the violations (empty = pass).
func (b *Baselines) GateDetShard(r DetShardReport) []string {
	var v []string
	v = b.check(v, "detshard.commit_wait_p50_speedup", r.CommitWaitSpeedup, b.DetShard.CommitWaitSpeedup)
	v = b.check(v, "detshard.replay_lag_p50_speedup", r.ReplayLagSpeedup, b.DetShard.ReplayLagSpeedup)
	return v
}

// GateFabric checks a fabric report against the pinned baselines.
func (b *Baselines) GateFabric(r FabricReport) []string {
	var v []string
	v = b.check(v, "fabric.adaptive_vs_best_static_sustained", r.AdaptiveVsBestStaticSustained, b.Fabric.AdaptiveVsBestStaticSustained)
	v = b.check(v, "fabric.adaptive_vs_best_static_burst", r.AdaptiveVsBestStaticBurst, b.Fabric.AdaptiveVsBestStaticBurst)
	v = b.check(v, "fabric.adaptive_msg_savings_burst", r.AdaptiveMsgSavingsBurst, b.Fabric.AdaptiveMsgSavingsBurst)
	return v
}

// GateNWay checks a replica-set sweep report against the pinned baselines:
// the all-replicas commit rule at N=3 must still pay measurably more than
// the majority quorum over the same lagged link.
func (b *Baselines) GateNWay(r NWayReport) []string {
	var v []string
	v = b.check(v, "nway.commit_wait_speedup_n3", r.CommitWaitSpeedupN3, b.NWay.CommitWaitSpeedupN3)
	return v
}

// GateEpoch checks the checkpoint sweep against the pinned baselines: at
// the longest swept uptime, epoch checkpoints must still make rejoin
// faster and retention smaller than the full-history path, and the
// epochs-on rejoin time must stay flat where the legacy one grows.
func (b *Baselines) GateEpoch(r EpochReport) []string {
	var v []string
	v = b.check(v, "epoch.rejoin_speedup", r.RejoinSpeedup, b.Epoch.RejoinSpeedup)
	v = b.check(v, "epoch.retention_savings", r.RetentionSavings, b.Epoch.RetentionSavings)
	v = b.check(v, "epoch.flatness_gain", r.FlatnessGain, b.Epoch.FlatnessGain)
	return v
}
