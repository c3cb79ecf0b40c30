package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// TestReplayDebtIsMeasured: the replay debt a deployment reports — its
// backups' worst busiest-lane backlog, times ReplayDispatchCost — grows
// with run length when one hot object puts every tuple on one of four det
// shards and the primary records faster than a lane replays; and a restream
// download, whose one-shard pull task drains its lane before it receives
// again, stays within one dispatch. The replay.debt gauge reads the same.
func TestReplayDebtIsMeasured(t *testing.T) {
	t.Parallel()
	hot := func(rounds int) time.Duration {
		sys := quietSystem(t, 1, core.WithDetShards(4))
		sys.Run(core.App{Name: "hot", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
			mu := th.Lib().NewMutex()
			for range rounds {
				mu.Lock(th.Task())
				th.Task().Compute(5 * time.Microsecond)
				mu.Unlock(th.Task())
			}
		}})
		if err := sys.Wait(); err != nil {
			t.Fatal(err)
		}
		if g, ok := sys.Obs.Registry().Snapshot().Gauge("replay.debt"); !ok || time.Duration(g) != sys.ReplayDebt() {
			t.Errorf("replay.debt gauge reads %v (registered %v), the accessor %v", time.Duration(g), ok, sys.ReplayDebt())
		}
		return sys.ReplayDebt()
	}
	short, long := hot(2000), hot(4000)
	if short <= 0 || long < short*3/2 {
		t.Errorf("hot-object debt %v over 2000 rounds and %v over 4000; want it to grow with the run", short, long)
	}
	sys, _ := stream(t, oracle.Scenario{SimSeed: 1, Size: 1 << 20}, nil)
	if debt, one := sys.ReplayDebt(), sys.Cfg.Replication.ReplayDispatchCost; debt > one {
		t.Errorf("restream debt %v, want at most one dispatch (%v)", debt, one)
	}
	t.Logf("hot object: %v, %v; restream: %v", short, long, sys.ReplayDebt())
}
