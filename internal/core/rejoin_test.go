package core_test

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
)

func quietParams() kernel.Params {
	p := kernel.DefaultParams()
	p.IdleWakeMin, p.IdleWakeMax = 0, 0
	return p
}

// Output-commit pacing (not the link) bounds the simulated stream at
// roughly 2 MB/s, so 64 MiB keeps the transfer alive past a second kill
// at t=15s while finishing well inside the run window.
const rejoinStreamTotal = 64 << 20

// withChaos drives the chaos schedule spec against the deployment.
func withChaos(spec string) core.Option {
	sched := chaos.MustParse(spec)
	return func(c *core.Config) { c.Chaos = sched }
}

// stream deploys sc's restream download of sc.Size bytes (which must be
// set) through oracle.Deploy — two replicas and one det shard unless sc
// sets them, and always strict output commit, the shipped default — with
// 16 KiB segments and extra, hands the system to prepare, if any, before
// it runs, runs it and fails unless checkStream passes. It returns the
// system and the client's output: the byte count and the stream's hash.
func stream(t *testing.T, sc oracle.Scenario, prepare func(*core.System), extra ...core.Option) (*core.System, string) {
	t.Helper()
	sc.App, sc.Replicas, sc.Shards, sc.Strict = "restream", cmp.Or(sc.Replicas, 2), cmp.Or(sc.Shards, 1), true
	sys, run, err := oracle.Deploy(sc, append([]core.Option{withMSS(16 << 10)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(sys)
	}
	out, err := run()
	if err == nil {
		err = checkStream(sys, out, sc.Size)
	}
	if err != nil {
		t.Fatalf("chaos %q: %v", sc.Chaos, err)
	}
	return sys, out
}

// checkStream checks a finished download: its client read all total bytes
// of the pattern — a short stream names the tasks a hang left stuck
// (Wait) — and the run passes oracle.KilledRun, which finds every victim of
// its chaos schedule dead, and oracle.DigestsAgree.
func checkStream(sys *core.System, out string, total int64) error {
	if !strings.HasPrefix(out, fmt.Sprintf("%d B, ", total)) {
		return errors.Join(fmt.Errorf("the client saw %q, want all %d bytes of the pattern (state %v, rejoin error %v)",
			out, total, sys.State(), sys.RejoinErr()), sys.Wait())
	}
	return errors.Join(oracle.KilledRun(sys), oracle.DigestsAgree(sys), oracle.CommitSafe(sys), oracle.CommitLive(sys))
}

// lifecycleStates returns every lifecycle state of a run, in order, read
// off the lifecycle scope's flight ring: the state each transition entered.
func lifecycleStates(sys *core.System) []core.LifecycleState {
	var states []core.LifecycleState
	for _, ev := range sys.Obs.FlightDump().Events {
		if ev.Kind == obs.StateChange {
			states = append(states, core.LifecycleState(ev.Seq))
		}
	}
	return states
}

// wantRejoined checks the one lifecycle a single failure starts: the
// deployment served degraded once the failure was handled, re-integrated a
// fresh backup on the freed partition, and ended replicated again, at
// generation 1 or later and with no rejoin error.
func wantRejoined(t *testing.T, sys *core.System, label string) {
	t.Helper()
	want := []core.LifecycleState{core.StateReplicated,
		core.StateDegraded, core.StateResyncing, core.StateReplicated}
	if states := lifecycleStates(sys); !reflect.DeepEqual(states, want) {
		t.Errorf("%s: lifecycle states = %v, want %v", label, states, want)
	}
	if g, st := sys.Generation(), sys.State(); g < 1 || st != core.StateReplicated {
		t.Errorf("%s: generation %d in state %v at the end, want >= 1 and replicated", label, g, st)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("%s: rejoin error: %v", label, err)
	}
}

// seedEpochs returns the epoch each rejoin of a run was seeded from, in
// generation order (0 = the genesis checkpoint: full-history replay), read
// off the lifecycle scope's flight ring.
func seedEpochs(sys *core.System) []uint64 {
	var epochs []uint64
	for _, ev := range sys.Obs.FlightDump().Events {
		var gen int
		var epoch uint64
		if ev.Kind != obs.CheckpointCut {
			continue
		}
		if _, err := fmt.Sscanf(ev.Note, "g%d: epoch %d seed", &gen, &epoch); err == nil {
			epochs = append(epochs, epoch)
		}
	}
	return epochs
}

// TestRejoinSecondFailureAfterResync is the acceptance scenario: kill the
// primary mid-stream, let the freed partition rejoin and resync, then kill
// the new primary too. The client must observe the exact byte stream of
// the row's never-failed run — whatever the det-shard count — and the
// system must end up fully replicated again. Every cell drives the same
// seeding path; what differs is the checkpoint each rejoin finds: genesis
// with epochs off (the whole history is the delta), a verified cut with
// epochs on, and — when the first kill lands before any cut was verified —
// genesis first and a verified cut second, so one run starts a restorable
// app fresh and later resumes it from a snapshot.
func TestRejoinSecondFailureAfterResync(t *testing.T) {
	t.Parallel()
	epochs := func(every time.Duration) []core.Option {
		return []core.Option{core.WithEpochCheckpoints(every, 0)}
	}
	rows := []struct {
		name   string
		opts   []core.Option
		shards []int
		seeded [2]bool // whether each rejoin must seed from an epoch > 0
	}{
		{"epochs-off", nil, []int{1, 4}, [2]bool{false, false}},
		{"epochs-on", epochs(500 * time.Millisecond), []int{1, 4}, [2]bool{true, true}},
		{"first-kill-before-first-cut", epochs(3 * time.Second), []int{1}, [2]bool{false, true}},
	}
	wantStates := []core.LifecycleState{
		core.StateReplicated,
		core.StateDegraded, core.StateResyncing, core.StateReplicated,
		core.StateDegraded, core.StateResyncing, core.StateReplicated,
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, base := stream(t, oracle.Scenario{SimSeed: 7, Size: rejoinStreamTotal}, nil, row.opts...)
			for _, shards := range row.shards {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					sys, out := stream(t, oracle.Scenario{SimSeed: 7, Size: rejoinStreamTotal, Shards: shards,
						Chaos: "kill primary @2s; kill primary @10s"}, nil, row.opts...)
					if out != base {
						t.Errorf("the client saw %q, the never-failed same-seed run's client %q", out, base)
					}
					if err := errors.Join(sys.RejoinErr(), sys.Healthy()); err != nil {
						t.Errorf("rejoin error or unhealthy end: %v", err)
					}
					if states := lifecycleStates(sys); !reflect.DeepEqual(states, wantStates) {
						t.Errorf("lifecycle states = %v, want %v", states, wantStates)
					}
					seeds := seedEpochs(sys)
					if len(seeds) != 2 || sys.Generation() != 2 {
						t.Fatalf("generation = %d with seed epochs %v, want one rejoin per kill", sys.Generation(), seeds)
					}
					for i, epoch := range seeds {
						if (epoch > 0) != row.seeded[i] {
							t.Errorf("rejoin %d seeded from epoch %d, want epoch>0 = %v", i+1, epoch, row.seeded[i])
						}
					}
				})
			}
		})
	}
}

// TestRejoinChaosSchedules runs the crash-rejoin-crash stream under three
// different seeded chaos schedules — plain double kill, a heart-beat storm
// (which may add a spurious early failover the system must also survive),
// and duplicated acks plus delayed log/sync delivery around the first kill
// — and checks each against the same never-failed same-seed baseline.
func TestRejoinChaosSchedules(t *testing.T) {
	t.Parallel()
	_, base := stream(t, oracle.Scenario{SimSeed: 11, Size: rejoinStreamTotal}, nil)
	schedules := map[string]string{
		"double-kill": "kill primary @2s; kill primary @10s",
		"hb-storm":    "drop hb p0.5 500ms..800ms; kill primary @6s; kill primary @15s",
		"dup-delay":   "dup acks x2 0s..8s; delay log 150us 1s..3s; delay sync 100us 1s..3s; kill primary @2500ms; kill primary @10s",
	}
	for name, spec := range schedules {
		t.Run(name, func(t *testing.T) {
			sys, out := stream(t, oracle.Scenario{SimSeed: 11, Size: rejoinStreamTotal, Chaos: spec}, nil)
			if out != base {
				t.Errorf("the client saw %q, the never-failed baseline's client %q", out, base)
			}
			if g := sys.Generation(); g < 2 {
				t.Errorf("generation = %d, want >= 2", g)
			}
			if err := sys.RejoinErr(); err != nil {
				t.Errorf("rejoin error: %v", err)
			}
		})
	}
}

// TestRejoinMidResyncActiveKill kills the active replica while the rejoin
// resync is still running: the half-synced backup must finish catching up
// from the retained log it already holds, promote, and serve the rest of
// the stream unchanged; the freed partition then rejoins again.
func TestRejoinMidResyncActiveKill(t *testing.T) {
	t.Parallel()
	// As soon as the resync starts, kill the active side 50 ms in — while
	// the catch-up replay is still streaming. The watch polls as background
	// work, so it never holds the run open; the kill it arms does.
	killed := false
	watch := func(sys *core.System) {
		sys.Sim.SpawnAfter("watch", 2*time.Millisecond, func(p *sim.Proc) {
			p.SetBackground(true)
			for sys.State() != core.StateResyncing {
				p.Sleep(2 * time.Millisecond)
			}
			p.SetBackground(false)
			killed = true
			node := sys.Active().Kernel.Partition().Nodes()[0].ID
			p.Sleep(50 * time.Millisecond)
			sys.Machine.Inject(hw.Fault{Kind: hw.CoreFailStop, Node: node, Core: -1, Addr: -1})
		})
	}
	sys, _ := stream(t, oracle.Scenario{SimSeed: 3, Size: 48 << 20, Chaos: "kill primary @2s"}, watch)
	if !killed {
		t.Fatal("never observed StateResyncing to inject the second failure")
	}
	if g := sys.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2", g)
	}
}
