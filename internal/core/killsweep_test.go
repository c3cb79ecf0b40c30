package core_test

import (
	"errors"
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

// sweepConfig is one deployment shape of a kill sweep.
type sweepConfig struct {
	replicas, shards int
	strict           bool
}

// TestKillAtEveryTransfer is the kill sweep's restream row: a 256 KiB
// stream at two replicas, one det shard and strict output commit. A sync
// transfer carries data-in updates that absorbed the ack-out before them.
func TestKillAtEveryTransfer(t *testing.T) {
	t.Parallel()
	sweep(t, "restream", sweepConfig{2, 1, true})
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

// killSweep sweeps app's scenario at each config, one subtest a config.
func killSweep(t *testing.T, app string, configs ...sweepConfig) {
	t.Parallel()
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("n%d/shards%d/strict=%v", cfg.replicas, cfg.shards, cfg.strict), func(t *testing.T) { sweep(t, app, cfg) })
	}
}

// sweep kills the recording side of app's scenario at cfg, two workers in
// its pool, as each log, sync and acks transfer of the never-failed run
// lands (kill primary @<class>#n), one subtest a kill, and each run passes
// oracle.Check, item 1's whole oracle. A fail-stop kill loses no output
// under relaxed commit either: the log ring's contents survive it.
//
// restream is single-threaded, so the promoted fork records on in the
// never-failed run's tuple order, and its row also diffs the two. A
// multithreaded app's fork records a live schedule that may differ (a
// parked worker woken by promotion records a spurious wake-up, which the
// app's wait loop absorbs); what stands for the diff there is that each
// rejoined backup replays the whole retained history — the dead primary's
// acknowledged prefix, then the fork's recording — without a divergence.
func sweep(t *testing.T, app string, cfg sweepConfig) {
	start := time.Now()
	sc := oracle.Scenario{SimSeed: 1, App: app, Workers: 2, Shards: cfg.shards, Replicas: cfg.replicas, Strict: cfg.strict}
	clean := oracle.Check(sc)
	if clean.Err != nil {
		t.Fatal(clean.Err) // oracle.Check names the never-failed run
	}
	transfers := oracle.Transfers(clean.Sys.Obs.Events())
	if len(transfers[chaos.ClassLog]) == 0 || len(transfers[chaos.ClassAcks]) == 0 {
		t.Fatalf("the never-failed run has transfers %v", transfers)
	}
	kills := 0
	for _, class := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		for _, n := range transfers[class] {
			sc.Chaos = fmt.Sprintf("kill primary @%s#%d", class, n)
			t.Run(sc.Chaos, func(t *testing.T) {
				kills++
				r := oracle.Check(sc)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if app != "restream" {
					return
				}
				if d := causal.DiffTraces(clean.Sys.Obs.Events(), r.Sys.Obs.Events(), 0); d != nil {
					t.Errorf("the tuple orders diverge: %s", d.Summary())
				}
			})
		}
	}
	t.Logf("%d kills in %v", kills, time.Since(start))
}

// TestKillDuringRejoin is rung (d) of the correctness ladder: kills during
// a checkpoint-seeded rejoin (the restream download with epoch checkpoints
// every 100 ms) of the partition freed by `kill primary @250ms`, which
// starts 100 ms after the failover while the 6 MiB download still runs, at
// one det shard and four. It kills the rejoining backup as each bulk
// transfer of its seed lands; the survivor as each log transfer of the
// delta replay that follows lands, from the rejoin's start until the new
// backup has replayed up to the attach frontier; and, at three replicas,
// the new primary as each bulk transfer lands — back to back with the
// first kill. Each run passes stream's checks, item 1's oracle, and ends
// healthy with no rejoin error after a later rejoin that completes.
func TestKillDuringRejoin(t *testing.T) {
	t.Parallel()
	start := time.Now()
	kills := 0
	opts := []core.Option{core.WithEpochCheckpoints(100*time.Millisecond, 0), core.WithRejoinDelay(100 * time.Millisecond)}
	for _, shards := range []int{1, 4} {
		sc := oracle.Scenario{SimSeed: 1, Size: 6 << 20, Shards: shards}
		_, want := stream(t, sc, nil, opts...)
		sc.Chaos = "kill primary @250ms"
		first, _ := stream(t, sc, nil, opts...)
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
			sc.Chaos, sc.Replicas = spec, 2
			if s, ok := strings.CutSuffix(spec, " n=3"); ok {
				sc.Chaos, sc.Replicas = s, 3
			}
			label := fmt.Sprintf("shards=%d: %s (N=%d)", shards, sc.Chaos, sc.Replicas)
			sys, got := stream(t, sc, nil, opts...)
			kills++
			if got != want {
				t.Errorf("%s: the client saw %q, the never-failed run's client %q", label, got, want)
			}
			if err := errors.Join(sys.RejoinErr(), sys.Healthy()); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if last := lastRejoinDone(sys); last < lastKill(sys) {
				t.Errorf("%s: no rejoin completed after the second kill", label)
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
