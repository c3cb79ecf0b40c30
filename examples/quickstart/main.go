// Quickstart: boot an FT-Linux system, replicate a multithreaded counter
// application across the two hardware partitions, kill the primary with an
// injected core fail-stop, watch the secondary continue the work, and watch
// a fresh backup rejoin on the repaired partition and replay it all.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Boot the paper's standard deployment: one 64-core machine split into
	// two 32-core partitions, one kernel each, shared-memory mailboxes,
	// heart-beat failure detection. WithReplicaSet(2) is that two-replica
	// system; larger sets add more backups on balanced fault domains. After
	// a failure the survivor keeps recording, and the dead partition
	// rejoins as a fresh backup once repaired (10s later by default). The
	// chaos schedule kills the primary partition 20ms in: a CPU core
	// fail-stop, reported by the (simulated) machine-check architecture.
	sys, err := core.New(
		core.WithSeed(1),
		core.WithReplicaSet(2),
		func(c *core.Config) { c.Chaos = chaos.MustParse("kill primary @20ms core") },
	)
	if err != nil {
		return err
	}

	// A race-free multithreaded application: 8 threads increment a shared
	// counter under an (interposed) pthread mutex. sys.Run starts the same
	// function on every replica; the FT-Namespace records the primary's
	// lock order and the secondary replays it. Each replica — the rejoined
	// backup too — counts into its own counter, keyed by its namespace.
	counts := make(map[*replication.Namespace]*int)
	sys.Run(core.App{Name: "counter", Main: func(root *replication.Thread, _ *tcprep.Sockets) {
		out := new(int)
		counts[root.NS()] = out
		mu := root.Lib().NewMutex()
		var threads []*replication.Thread
		for i := 0; i < 8; i++ {
			threads = append(threads, root.NS().SpawnThread(root, "worker", func(th *replication.Thread) {
				for j := 0; j < 500; j++ {
					th.Task().Compute(100 * time.Microsecond)
					mu.Lock(th.Task())
					*out++
					mu.Unlock(th.Task())
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
		fmt.Printf("  [%v t=%v] application finished: counter = %d\n",
			root.NS().Role(), root.Task().Now(), *out)
	}})

	fmt.Println("injecting a core fail-stop on the primary partition at t=20ms...")

	if err := sys.Sim.Run(); err != nil {
		return err
	}

	fmt.Printf("\nprimary alive: %v (%s)\n", sys.Primary.Kernel.Alive(), sys.Primary.Kernel.PanicReason().Cause)
	fmt.Printf("failure detected at %v, failover complete at %v\n", sys.FailedAt, sys.LiveAt)
	fmt.Printf("secondary role at the end: %v\n", sys.Secondary.NS.Role())
	secondary := *counts[sys.Secondary.NS]
	fmt.Printf("secondary counter: %d (want 4000)\n", secondary)
	fmt.Printf("after the repair: %v at generation %d\n", sys.State(), sys.Generation())
	divergences := sys.Secondary.NS.Stats().Divergences
	if b := sys.Standby(); b != nil {
		st := b.NS.Stats()
		fmt.Printf("rejoined backup replayed %d deterministic sections, counter = %d\n", st.Sections, *counts[b.NS])
		divergences += st.Divergences
	}
	fmt.Printf("%d divergences\n", divergences)
	if secondary != 4000 {
		return fmt.Errorf("secondary did not complete the work")
	}
	return nil
}
