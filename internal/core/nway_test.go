package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// nwayOpts is the common quiet deployment for replica-set tests.
func nwayOpts(seed int64, n, q int, extra ...core.Option) []core.Option {
	opts := []core.Option{
		core.WithSeed(seed),
		core.WithKernelParams(quietParams()),
		withMSS(16 << 10),
		fastNICReload,
		core.WithReplicaSet(n),
		func(c *core.Config) { c.Quorum = q },
	}
	return append(opts, extra...)
}

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

// nwayDownload streams total patterned bytes through an n-replica
// deployment, runs until its work is done, and returns the system, the
// received-stream hash, and the virtual time the last byte arrived.
func nwayDownload(t *testing.T, total int, opts []core.Option,
	after func(sys *core.System)) (*core.System, uint64, sim.Time) {
	t.Helper()
	sys, err := core.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, err := sys.AttachNetwork(slowLAN())
	if err != nil {
		t.Fatalf("attach network: %v", err)
	}
	sys.Run(plainStream(total))
	if after != nil {
		after(sys)
	}
	h := fnv.New64a()
	got := 0
	var doneAt sim.Time
	client.Kernel.Spawn("wget", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		want := make([]byte, 256<<10)
		for {
			data, err := c.Recv(tk, 256<<10)
			if errors.Is(err, tcpstack.EOF) {
				break
			}
			if err != nil {
				t.Errorf("recv after %d bytes: %v", got, err)
				return
			}
			restream.Fill(want[:len(data)], got)
			if !bytes.Equal(data, want[:len(data)]) {
				t.Errorf("stream diverged from the deterministic pattern at offset %d", got)
				return
			}
			h.Write(data)
			got += len(data)
		}
		doneAt = tk.Now()
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != total {
		t.Fatalf("client received %d of %d bytes by the end of the run at %v (state %v, rejoinErr %v)",
			got, total, sys.Sim.Now(), sys.State(), sys.RejoinErr())
	}
	return sys, h.Sum64(), doneAt
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
	const total = 4 << 20
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
	sys2, h2, _ := nwayDownload(t, total,
		nwayOpts(21, 3, 2), lag)
	sys3, h3, _ := nwayDownload(t, total,
		nwayOpts(21, 3, 3), lag)

	if h2 != h3 {
		t.Errorf("stream hash differs across quorum settings: %x vs %x", h2, h3)
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
	const total = 8 << 20
	_, base, _ := nwayDownload(t, total,
		nwayOpts(23, 3, 2), nil)
	var st core.LifecycleState
	var err error
	sys, h, _ := nwayDownload(t, total,
		nwayOpts(23, 3, 2,
			withChaos("kill backup1 @1s")), healthAt(2*time.Second, &st, &err))

	if h != base {
		t.Errorf("stream hash %x != never-failed same-seed hash %x", h, base)
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
	const total = 8 << 20
	var st core.LifecycleState
	var err error
	sys, _, _ := nwayDownload(t, total,
		nwayOpts(25, 3, 3, core.WithTrace(),
			withChaos("kill backup2 @1s")), healthAt(2*time.Second, &st, &err))

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
	const total = 8 << 20
	_, base, _ := nwayDownload(t, total,
		nwayOpts(27, 3, 2), nil)

	lag := func(sys *core.System) { lagRing(t, sys, "ftns.log.r2", 500*time.Microsecond) }
	sys, h, _ := nwayDownload(t, total,
		nwayOpts(27, 3, 2, core.WithTrace(), withChaos("kill primary @1s")), lag)

	if h != base {
		t.Errorf("stream hash %x != never-failed same-seed hash %x", h, base)
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
	const total = 24 << 20
	opts := func(spec string) []core.Option {
		o := nwayOpts(29, 3, 2, core.WithRejoinDelay(2*time.Second))
		if spec != "" {
			o = append(o, withChaos(spec))
		}
		return o
	}
	_, base, _ := nwayDownload(t, total, opts(""), nil)
	sys, h, _ := nwayDownload(t, total, opts("kill primary @2s"), nil)
	if h != base {
		t.Errorf("stream hash %x != never-failed same-seed hash %x", h, base)
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
	sys, err := core.New(nwayOpts(31, 3, 2)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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
	sys, err := core.New(nwayOpts(33, 3, 2,
		withChaos("kill backup2 @1s"))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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
	const total = 2 << 20
	for _, n := range []int{2, 3} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("replicas=%d/shards=%d", n, shards), func(t *testing.T) {
				sys, _, _ := nwayDownload(t, total,
					nwayOpts(33, n, 2, core.WithDetShards(shards)), nil)
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
		sys, err := core.New(nwayOpts(1, n, 0)...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
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
