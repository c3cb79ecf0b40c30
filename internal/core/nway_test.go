package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/shm"
	"repro/internal/sim"
)

// lagRing adds fixed delivery latency to one named ring — a per-link lag
// no chaos schedule can express (schedules match whole channel classes).
func lagRing(t *testing.T, sys *core.System, name string, d time.Duration) {
	t.Helper()
	for _, r := range sys.Fabric.Rings() {
		if r.Name() == name {
			r.SetChaosHook(func([]shm.Message) shm.ChaosVerdict {
				return shm.ChaosVerdict{Delay: d}
			})
			return
		}
	}
	t.Fatalf("ring %q not found", name)
}

// TestNWayQuorumCommitProceedsWithLaggedBackup is the tentpole's commit
// rule: with N=3 and quorum 2, a backup whose log deliveries (and so its
// receipt watermark) lag by 300µs per transfer must not slow output
// release — the faster backup's receipt satisfies the quorum. The
// all-replicas rule (quorum 3) over the same lagged link pays the
// laggard's latency on every commit. Completion time hides the
// difference behind link pacing, so the assertion reads the recorder's
// commit-wait histogram directly.
func TestNWayQuorumCommitProceedsWithLaggedBackup(t *testing.T) {
	t.Parallel()
	lag := func(sys *core.System) { lagRing(t, sys, "ftns.log.r2", 300*time.Microsecond) }

	commitWait := func(sys *core.System) float64 {
		for _, h := range sys.Obs.Registry().Snapshot().Histograms {
			if h.Name == "ftns.commit.wait" && h.Count > 0 {
				return float64(h.Sum) / float64(h.Count)
			}
		}
		t.Fatal("no ftns.commit.wait samples")
		return 0
	}
	sc := oracle.Scenario{SimSeed: 21, Size: 4 << 20, Replicas: 3, Quorum: 2}
	sys2, out2 := stream(t, sc, lag)
	sc.Quorum = 3
	sys3, out3 := stream(t, sc, lag)

	if out2 != out3 {
		t.Errorf("the client's stream differs across quorum settings: %q vs %q", out2, out3)
	}
	w2, w3 := commitWait(sys2), commitWait(sys3)
	if w2 >= w3 {
		t.Errorf("mean commit wait: quorum 2 = %.0fns, not below all-replicas rule = %.0fns", w2, w3)
	}
}

// healthAt records the deployment's lifecycle state and Healthy verdict
// at virtual time at — after a failure, before its repair.
func healthAt(at time.Duration, st *core.LifecycleState, err *error) func(*core.System) {
	return func(sys *core.System) {
		sys.Sim.Schedule(at, func() { *st, *err = sys.State(), sys.Healthy() })
	}
}

// TestNWayBackupKillStaysAtQuorum kills one of two backups mid-stream:
// with quorum 2 the surviving backup alone still satisfies the commit
// rule, so until the freed slot rejoins the system reports plain
// degradation (not quorum loss), and the stream matches the never-failed
// same-seed run byte for byte.
func TestNWayBackupKillStaysAtQuorum(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 23, Size: 8 << 20, Replicas: 3, Quorum: 2}
	_, base := stream(t, sc, nil)
	var st core.LifecycleState
	var err error
	sc.Chaos = "kill backup1 @1s"
	sys, out := stream(t, sc, healthAt(2*time.Second, &st, &err))

	if out != base {
		t.Errorf("the client saw %q, the never-failed same-seed run's client %q", out, base)
	}
	if sys.ReplicaSet[1].Kernel.Alive() {
		t.Error("backup slot 1 should be dead")
	}
	if !sys.ReplicaSet[2].Kernel.Alive() {
		t.Error("backup slot 2 should still be alive")
	}
	if st != core.StateDegraded {
		t.Errorf("state after the kill = %v, want degraded", st)
	}
	if !errors.Is(err, core.ErrDegraded) {
		t.Errorf("Healthy after the kill = %v, want ErrDegraded", err)
	}
	if errors.Is(err, core.ErrQuorumLost) {
		t.Errorf("Healthy after the kill = %v; one live backup still meets quorum 2, not a quorum loss", err)
	}
	wantRejoined(t, sys, "after the backup kill")
}

// TestNWayQuorumLossSurfaced configures the all-replicas rule (quorum 3
// of 3) and kills a backup: the remaining single backup is below the
// commit quorum, so Healthy must surface ErrQuorumLost (which wraps
// ErrDegraded) until the freed slot rejoins, and the lifecycle trace must
// carry a quorum-lost event — while the recorder's all-of-the-living
// fallback keeps the stream flowing and byte-correct.
func TestNWayQuorumLossSurfaced(t *testing.T) {
	t.Parallel()
	var st core.LifecycleState
	var err error
	sys, _ := stream(t, oracle.Scenario{SimSeed: 25, Size: 8 << 20, Replicas: 3, Quorum: 3, Chaos: "kill backup2 @1s"},
		healthAt(2*time.Second, &st, &err))

	if st != core.StateDegraded {
		t.Errorf("state after the kill = %v, want degraded", st)
	}
	if !errors.Is(err, core.ErrQuorumLost) {
		t.Errorf("Healthy after the kill = %v, want ErrQuorumLost", err)
	}
	if !errors.Is(err, core.ErrDegraded) {
		t.Errorf("Healthy after the kill = %v must also match ErrDegraded (wrapped)", err)
	}
	found := false
	for _, e := range sys.Obs.Events() {
		if e.Kind == obs.QuorumLost {
			found = true
			if e.Seq != 1 || e.Arg != 3 {
				t.Errorf("quorum-lost event seq/arg = %d/%d, want 1 live / quorum 3", e.Seq, e.Arg)
			}
		}
	}
	if !found {
		t.Error("no quorum-lost event in the trace")
	}
	wantRejoined(t, sys, "after the backup kill")
}

// TestNWayElectionPromotesMostCaughtUp lags backup slot 2's log delivery,
// then kills the primary: the election must promote slot 1 (the higher
// receipt watermark), retire slot 2, record the contested election in the
// trace and the flight dump, and keep the client stream byte-identical to
// the never-failed run.
func TestNWayElectionPromotesMostCaughtUp(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 27, Size: 8 << 20, Replicas: 3, Quorum: 2}
	_, base := stream(t, sc, nil)

	lag := func(sys *core.System) { lagRing(t, sys, "ftns.log.r2", 500*time.Microsecond) }
	sc.Chaos = "kill primary @1s"
	sys, out := stream(t, sc, lag)

	if out != base {
		t.Errorf("the client saw %q, the never-failed same-seed run's client %q", out, base)
	}
	if got := sys.Active(); got != sys.ReplicaSet[1] {
		t.Fatalf("active replica slot = %d, want the caught-up slot 1", got.Slot())
	}
	if sys.ReplicaSet[2].Kernel.Alive() {
		t.Error("election loser (slot 2) was not retired")
	}
	var won bool
	for _, e := range sys.Obs.Events() {
		switch e.Kind {
		case obs.Election:
			won = true
			if e.Seq != 1 {
				t.Errorf("election winner slot = %d, want 1", e.Seq)
			}
		case obs.ReplicaRetire:
			if e.Seq != 2 {
				t.Errorf("retired slot = %d, want 2", e.Seq)
			}
		}
	}
	if !won {
		t.Error("no election event in the trace")
	}
	if sys.Flight == nil {
		t.Fatal("no flight dump captured at failover")
	}
	if d := sys.Flight.Diagnosis; !strings.Contains(d, "election: slot 1 promoted") ||
		!strings.Contains(d, "election: slot 2 retired") {
		t.Errorf("flight diagnosis misses the election record:\n%s", d)
	}
}

// TestNWayRollingReplacement is the crash -> rejoin -> retire acceptance
// sequence: kill the primary of a three-replica set (electing one backup,
// retiring the other), let both freed partitions re-integrate serially to
// full strength, then retire a healthy backup (the rolling replacement)
// and let its replacement resync too. The client stream must match the
// never-failed same-seed run byte for byte.
func TestNWayRollingReplacement(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 29, Size: 24 << 20, Replicas: 3, Quorum: 2}
	repair := core.WithRejoinDelay(2 * time.Second)
	_, base := stream(t, sc, nil, repair)
	sc.Chaos = "kill primary @2s"
	sys, out := stream(t, sc, nil, repair)
	if out != base {
		t.Errorf("the client saw %q, the never-failed same-seed run's client %q", out, base)
	}
	if st, g := sys.State(), sys.Generation(); st != core.StateReplicated || g != 2 {
		t.Fatalf("run ended in state %v at generation %d, want full strength after two rejoins", st, g)
	}
	held := sys.Backups()
	before := slices.Clone(held)
	if err := sys.Retire(held[0]); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(held, before) || slices.Equal(sys.Backups(), before) {
		t.Error("a Backups slice taken before the retire and its rejoin moved with the membership")
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
	if st := sys.State(); st != core.StateReplicated {
		t.Errorf("end state = %v, want replicated (full strength restored)", st)
	}
	if n := len(sys.Backups()); n != 2 {
		t.Errorf("backup count = %d, want 2", n)
	}
	for _, b := range sys.Backups() {
		if d := b.NS.Stats().Divergences; d != 0 {
			t.Errorf("backup slot %d recorded %d divergences", b.Slot(), d)
		}
	}
}

// TestNWayRetireErrors pins the rolling-replacement error surface.
func TestNWayRetireErrors(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 31, core.WithReplicaSet(3))
	if err := sys.Retire(nil); !errors.Is(err, core.ErrReplicaRetired) {
		t.Errorf("Retire(nil) = %v, want ErrReplicaRetired", err)
	}
	if err := sys.Retire(sys.Active()); err == nil {
		t.Error("Retire(active) succeeded, want error")
	}
	b := sys.Backups()[0]
	if err := sys.Retire(b); err != nil {
		t.Fatalf("Retire(backup): %v", err)
	}
	if err := sys.Retire(b); !errors.Is(err, core.ErrReplicaRetired) {
		t.Errorf("double Retire = %v, want ErrReplicaRetired", err)
	}
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Kernel.Alive() {
		t.Error("retired backup's kernel still alive")
	}
}

// TestRejoinRefusesDeadActive calls Rejoin in the instant the recording
// side dies silently (a kernel panic no detector has noticed yet) while a
// backup slot is already down: there is nothing to resync against, so
// Rejoin must refuse with ErrDegraded and start nothing — no generation,
// no resyncing state — and leave the failover to the detectors.
func TestRejoinRefusesDeadActive(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 33, core.WithReplicaSet(3), withChaos("kill backup2 @1s"))
	done := 0
	sys.Run(core.App{Name: "echo", Main: echoApp(80, 1, &done)})
	var rerr error
	sys.Sim.Schedule(2*time.Second, func() {
		sys.Active().Kernel.Panic("silent death", nil)
		rerr = sys.Rejoin()
	})
	if err := sys.Sim.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, core.ErrDegraded) {
		t.Errorf("Rejoin against a dead recording side = %v, want ErrDegraded", rerr)
	}
	if g := sys.Generation(); g != 0 {
		t.Errorf("generation = %d, want 0: a resync started with nobody recording", g)
	}
	if st := sys.State(); st != core.StateDegraded {
		t.Errorf("state = %v, want degraded", st)
	}
}

// TestShardsAcrossReplicaSets crosses det-section sharding with replica-
// set sizes: every backup of every combination must replay the stream
// without a single divergence.
func TestShardsAcrossReplicaSets(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("replicas=%d/shards=%d", n, shards), func(t *testing.T) {
				sys, _ := stream(t, oracle.Scenario{SimSeed: 33, Size: 2 << 20, Replicas: n, Quorum: 2, Shards: shards}, nil)
				if got := len(sys.Backups()); got != n-1 {
					t.Fatalf("backup count = %d, want %d", got, n-1)
				}
				for _, b := range sys.Backups() {
					if d := b.NS.Stats().Divergences; d != 0 {
						t.Errorf("slot %d: %d divergences", b.Slot(), d)
					}
				}
				wm := sys.Watermarks()
				if len(wm) != n-1 {
					t.Fatalf("watermark vector length = %d, want %d", len(wm), n-1)
				}
				for _, w := range wm {
					if w.Dead || w.Watermark == 0 {
						t.Errorf("watermark %+v: want live with progress", w)
					}
				}
			})
		}
	}
}

// TestReplicaSetValidation pins the topology API's normalization rules.
func TestReplicaSetValidation(t *testing.T) {
	t.Parallel()
	if _, err := core.New(core.WithReplicaSet(1)); err == nil {
		t.Error("WithReplicaSet(1) accepted, want error")
	}
	quorum := func(q int) core.Option { return func(c *core.Config) { c.Quorum = q } }
	placement := func(domains [][]int) core.Option { return func(c *core.Config) { c.Placement = domains } }
	if _, err := core.New(core.WithReplicaSet(3), quorum(4)); err == nil {
		t.Error("quorum 4 of 3 accepted, want error")
	}
	if _, err := core.New(core.WithReplicaSet(3), quorum(1)); err == nil {
		t.Error("quorum 1 accepted, want error")
	}
	if _, err := core.New(core.WithReplicaSet(3),
		placement([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})); err == nil {
		t.Error("2-domain placement for 3 replicas accepted, want error")
	}
	for n, wantQ := range map[int]int{2: 2, 3: 2, 4: 3, 5: 3} {
		sys := quietSystem(t, 1, core.WithReplicaSet(n))
		if sys.Cfg.Quorum != wantQ {
			t.Errorf("n=%d: default quorum = %d, want majority %d", n, sys.Cfg.Quorum, wantQ)
		}
		if len(sys.Cfg.Placement) != n || len(sys.ReplicaSet) != n {
			t.Errorf("n=%d: placement/replica-set sizes %d/%d",
				n, len(sys.Cfg.Placement), len(sys.ReplicaSet))
		}
	}
	// An explicit placement implies the replica-set size.
	sys, err := core.New(
		placement([][]int{{0, 1}, {4, 5}}),
		func(c *core.Config) { c.PrimaryCores, c.SecondaryCores = 4, 1 },
	)
	if err != nil {
		t.Fatalf("explicit placement: %v", err)
	}
	if sys.Cfg.Replicas != 2 || sys.Cfg.Quorum != 2 {
		t.Errorf("replicas/quorum = %d/%d, want 2/2", sys.Cfg.Replicas, sys.Cfg.Quorum)
	}
}
