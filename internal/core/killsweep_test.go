package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// TestKillAtEveryTransfer kills the recording side at every message
// boundary of a 256 KiB download from the restream server, at two replicas,
// one det shard and strict output commit: as each log, sync and acks
// transfer of the never-failed run lands (kill primary @<class>#n). A sync
// transfer carries data-in updates that absorbed the ack-out before them.
// At every boundary the client receives the never-failed run's bytes, the
// tuple orders diff clean with no divergence on any replica, the run ends
// replicated at generation 1 or later with every live kernel's cores idle,
// nothing is traced for the dead kernel after its death, and Wait reports
// no hang (rejoinRun fails the test on the first two and the last).
func TestKillAtEveryTransfer(t *testing.T) {
	t.Parallel()
	const total = 256 << 10
	clean, want, _ := rejoinRun(t, "", 1, plainStream, total, core.WithTrace())
	transfers := oracle.Transfers(clean.Obs.Events())
	start := time.Now()
	kills := 0
	for _, class := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		if transfers[class] == 0 {
			t.Fatalf("the never-failed run has no %s transfers", class)
		}
		for n := 1; n <= transfers[class]; n++ {
			spec := fmt.Sprintf("kill primary @%s#%d", class, n)
			t.Run(spec, func(t *testing.T) {
				sys, got, _ := rejoinRun(t, spec, 1, plainStream, total, core.WithTrace())
				kills++
				if got != want {
					t.Errorf("the client's stream hashes to %x, the never-failed run's to %x", got, want)
				}
				if d := causal.DiffTraces(clean.Obs.Events(), sys.Obs.Events(), 0); d != nil {
					t.Errorf("the tuple orders diverge: %s", d.Summary())
				}
				if err := oracle.KilledRun(sys, 1); err != nil {
					t.Error(err)
				}
			})
		}
	}
	t.Logf("%d kills (%v transfers) in %v", kills, transfers, time.Since(start))
}

// sweepConfig is one deployment shape of a kill sweep.
type sweepConfig struct {
	replicas, shards int
	strict           bool
}

// TestKillAtEveryTransferMongoose is killSweep over Mongoose serving three
// requests: two replicas at one det shard with strict output commit, and
// three at four shards with relaxed commit.
func TestKillAtEveryTransferMongoose(t *testing.T) {
	killSweep(t, "mongoose", sweepConfig{2, 1, true}, sweepConfig{3, 4, false})
}

// TestKillAtEveryTransferPBZIP2 is killSweep over PBZIP2 compressing four
// blocks: two replicas at four shards, strict; three at one shard, relaxed.
func TestKillAtEveryTransferPBZIP2(t *testing.T) {
	killSweep(t, "pbzip2", sweepConfig{2, 4, true}, sweepConfig{3, 1, false})
}

// TestKillAtEveryTransferMemcached is killSweep over memcached serving one
// connection 24 commands, at two replicas and four shards, strict.
func TestKillAtEveryTransferMemcached(t *testing.T) {
	killSweep(t, "memcached", sweepConfig{2, 4, true})
}

// killSweep runs TestKillAtEveryTransfer's oracle over app's scenario at
// each config, two workers in its pool, deployed by oracle.Deploy: the
// recording side is killed as each log, sync and acks transfer of the
// never-failed run lands. At every boundary the world outside sees the
// never-failed run's output, no replica diverges, the run ends replicated
// at generation 1 or later with every live kernel's cores idle, and an app
// whose mains return does not hang. A fail-stop kill loses no output under
// relaxed commit either: the log ring's contents survive it.
//
// These apps are multithreaded, so the tuple order the promoted fork
// records on with is a live schedule and may differ from the never-failed
// run's (a parked worker woken by promotion records a spurious wake-up,
// which the app's wait loop absorbs); the oracle's tuple-order diff is
// restream's alone. What stands for it here: each rejoined backup replays
// the whole retained history — the dead primary's acknowledged prefix, then
// the fork's recording — from its first tuple without a divergence.
func killSweep(t *testing.T, app string, configs ...sweepConfig) {
	t.Parallel()
	start := time.Now()
	kills := 0
	for _, cfg := range configs {
		sc := oracle.Scenario{SimSeed: 1, App: app, Workers: 2, Shards: cfg.shards, Replicas: cfg.replicas, Strict: cfg.strict}
		name := fmt.Sprintf("n%d/shards%d/strict=%v", cfg.replicas, cfg.shards, cfg.strict)
		t.Run(name, func(t *testing.T) {
			clean, want := sweepRun(t, sc)
			transfers := oracle.Transfers(clean.Obs.Events())
			if transfers[chaos.ClassLog] == 0 || transfers[chaos.ClassAcks] == 0 {
				t.Fatalf("the never-failed run has transfers %v", transfers)
			}
			for _, class := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
				for n := 1; n <= transfers[class]; n++ {
					sc.Chaos = fmt.Sprintf("kill primary @%s#%d", class, n)
					sys, got := sweepRun(t, sc)
					kills++
					if got != want {
						t.Errorf("%s: the output is %q, the never-failed run's %q", sc.Chaos, got, want)
					}
					if err := oracle.KilledRun(sys, 1); err != nil {
						t.Errorf("%s: %v", sc.Chaos, err)
					}
					sys.Sim.Shutdown() // its parked processes go now, not at the row's end
				}
			}
			t.Logf("%v transfers", transfers)
		})
	}
	t.Logf("%d kills in %v", kills, time.Since(start))
}

// sweepRun runs one scenario and returns its deployment with its output.
func sweepRun(t *testing.T, sc oracle.Scenario) (*core.System, string) {
	t.Helper()
	sys, run, err := oracle.Deploy(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Sim.Shutdown)
	output, err := run()
	if err != nil {
		t.Fatalf("%s: %v", sc.Chaos, err)
	}
	return sys, output
}

// TestKillDuringRejoin is rung (d) of the correctness ladder: kills during
// a checkpoint-seeded rejoin (restorableStream with epoch checkpoints every
// 100 ms) of the partition freed by `kill primary @250ms`, which starts
// 100 ms after the failover while the 6 MiB download still runs, at one
// det shard and four. It
// kills the rejoining backup as each bulk transfer of its seed lands; the
// survivor as each log transfer of the delta replay that follows lands,
// from the rejoin's start until the new backup has replayed up to the
// attach frontier; and, at three replicas, the new primary as each bulk
// transfer lands — back to back with the first kill. Each run has item 1's
// oracle, and ends healthy with no rejoin error after a later rejoin that
// completes.
func TestKillDuringRejoin(t *testing.T) {
	t.Parallel()
	const total = 6 << 20
	start := time.Now()
	kills := 0
	for _, shards := range []int{1, 4} {
		opts := []core.Option{core.WithEpochCheckpoints(100*time.Millisecond, 0), core.WithDetShards(shards),
			core.WithRejoinDelay(100 * time.Millisecond), core.WithTrace()}
		_, want, _ := rejoinRun(t, "", 1, restorableStream, total, opts...)
		first, _, _ := rejoinRun(t, "kill primary @250ms", 1, restorableStream, total, opts...)
		if seeds := seedEpochs(first); len(seeds) != 1 || seeds[0] == 0 {
			t.Fatalf("shards=%d: the rejoin seeded from epochs %v, want one verified cut", shards, seeds)
		}
		bulk, delta := rejoinTransfers(first)
		if bulk == 0 || len(delta) == 0 {
			t.Fatalf("shards=%d: the rejoin has %d bulk transfers and log transfers %v in its delta replay", shards, bulk, delta)
		}
		var specs []string
		for n := 1; n <= bulk; n++ {
			specs = append(specs, fmt.Sprintf("kill primary @250ms; kill backup @bulk#%d", n))
		}
		for _, n := range delta {
			specs = append(specs, fmt.Sprintf("kill primary @250ms; kill primary @log#%d", n))
		}
		for n := 1; n <= bulk; n++ {
			specs = append(specs, fmt.Sprintf("kill primary @250ms; kill primary @bulk#%d n=3", n))
		}
		for _, spec := range specs {
			extra := opts
			if s, ok := strings.CutSuffix(spec, " n=3"); ok {
				spec, extra = s, append(opts[:len(opts):len(opts)], core.WithReplicaSet(3))
			}
			label := fmt.Sprintf("shards=%d: %s (N=%d)", shards, spec, 2+len(extra)-len(opts))
			sys, got, _ := rejoinRun(t, spec, 1, restorableStream, total, extra...)
			kills++
			if got != want {
				t.Errorf("%s: the client's stream hashes to %x, the never-failed run's to %x", label, got, want)
			}
			if inj := sys.Injector(); inj.Kills != 2 {
				t.Errorf("%s: %d kills delivered, want 2", label, inj.Kills)
			}
			if err := sys.RejoinErr(); err != nil {
				t.Errorf("%s: rejoin error: %v", label, err)
			}
			if err := sys.Healthy(); err != nil {
				t.Errorf("%s: not healthy at the end: %v", label, err)
			}
			if last := lastRejoinDone(sys); last < lastKill(sys) {
				t.Errorf("%s: no rejoin completed after the second kill", label)
			}
			if err := oracle.SilentAfterDeath(sys.Obs.Events()); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			for _, rep := range append([]*core.Replica{sys.Active()}, sys.Backups()...) {
				if d := rep.NS.Stats().Divergences; d != 0 {
					t.Errorf("%s: %d divergences on %s", label, d, rep.Kernel.Name())
				}
				if k := rep.Kernel; k.Alive() && k.IdleCores() != k.Cores() {
					t.Errorf("%s: %s has %d of %d cores idle once quiet", label, k.Name(), k.IdleCores(), k.Cores())
				}
			}
			sys.Sim.Shutdown()
		}
	}
	t.Logf("%d kills in %v", kills, time.Since(start))
}

// rejoinTransfers reads a run's one rejoin off its trace: how many bulk
// transfers seeded it, and the run-wide numbers of the log transfers that
// landed from its start until the new backup replayed up to the attach
// frontier.
func rejoinTransfers(sys *core.System) (bulk int, delta []int) {
	logs, replaying := 0, false
	var frontier int64
	for _, e := range sys.Obs.Events() {
		switch {
		case e.Kind == obs.ResyncStart:
			replaying, frontier = true, e.Arg
		case e.Kind == obs.Replay && replaying && strings.HasPrefix(e.Scope, "gen") && e.Seq+1 >= frontier:
			replaying = false
		case e.Kind == obs.RingDeliver:
			switch chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/")) {
			case chaos.ClassBulk:
				bulk++
			case chaos.ClassLog:
				if logs++; replaying {
					delta = append(delta, logs)
				}
			}
		}
	}
	return bulk, delta
}

// lastKill and lastRejoinDone are the instants of a run's last chaos kill
// and of its last completed rejoin.
func lastKill(sys *core.System) (at sim.Time) {
	for _, e := range sys.Obs.Events() {
		if e.Kind == obs.ChaosInject && strings.HasPrefix(e.Note, "kill") {
			at = e.At
		}
	}
	return at
}

func lastRejoinDone(sys *core.System) (at sim.Time) {
	at = -1
	for _, e := range sys.Obs.Events() {
		if e.Kind == obs.ResyncDone && e.Arg >= 0 {
			at = e.At
		}
	}
	return at
}
