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
)

// TestKillAtEveryTransfer kills the recording side at every message
// boundary of a 256 KiB download from the restream server, at two replicas,
// one det shard and strict output commit: as each log, sync and acks
// transfer of the never-failed run lands (kill primary @<class>#n). A sync
// transfer carries data-in updates that absorbed the ack-out before them.
// At every boundary the client receives the never-failed run's bytes, the
// tuple orders diff clean with no divergence on any replica, the run ends
// replicated at generation 1 or later with every live kernel's cores idle,
// and Wait reports no hang (rejoinRun fails the test on the first two and
// the last).
func TestKillAtEveryTransfer(t *testing.T) {
	t.Parallel()
	const total = 256 << 10
	clean, want, _ := rejoinRun(t, "", 1, plainStream, total, core.WithTrace())
	transfers := map[string]int{}
	for _, e := range clean.Obs.Events() {
		if e.Kind == obs.RingDeliver {
			transfers[chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/"))]++
		}
	}
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
				if inj := sys.Injector(); inj.Kills != 1 {
					t.Errorf("%d kills delivered, want 1", inj.Kills)
				}
				if g, st := sys.Generation(), sys.State(); g < 1 || st != core.StateReplicated {
					t.Errorf("generation %d in state %v at the end, want >= 1 and replicated", g, st)
				}
				for _, rep := range []*core.Replica{sys.Active(), sys.Standby()} {
					if rep == nil {
						t.Errorf("a replica is missing at the end")
						continue
					}
					if d := rep.NS.Stats().Divergences; d != 0 {
						t.Errorf("%d divergences on %s", d, rep.Kernel.Name())
					}
					if k := rep.Kernel; k.Alive() && k.IdleCores() != k.Cores() {
						t.Errorf("%s has %d of %d cores idle once quiet", k.Name(), k.IdleCores(), k.Cores())
					}
				}
			})
		}
	}
	t.Logf("%d kills (%v transfers) in %v", kills, transfers, time.Since(start))
}
