package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// boot brings up a sweep deployment: core.New at the seed with the sweeps'
// fixed settings — the deep-idle wake penalty off, for exact per-point
// counts and distributions, and rejoin off — plus the cell's own options.
func boot(seed int64, opts ...core.Option) (*core.System, error) {
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	return core.New(append([]core.Option{core.WithSeed(seed), core.WithKernelParams(kp), core.WithRejoin(false)}, opts...)...)
}

// sweepRun is one finished sweep cell: its deployment as it stood the
// instant the last replica's main returned.
type sweepRun struct {
	sys       *core.System
	log, acks *shm.Ring    // the first backup's det-log and ack rings
	finished  sim.Time     // when the last replica's main returned
	snap      obs.Snapshot // the registry at that instant
	err       error        // the first metric hist did not find as required
}

// runSweep boots a sweep deployment with the cell's options, lets prepare
// (when non-nil) see it before anything runs, starts app on every replica
// with sys.Run, and stops the run the instant the last replica's main
// returns; a run that ends before then hung.
func runSweep(seed int64, app core.App, prepare func(*core.System) error, opts ...core.Option) (*sweepRun, error) {
	sys, err := boot(seed, opts...)
	if err != nil {
		return nil, err
	}
	defer sys.Sim.Shutdown()
	if prepare != nil {
		if err := prepare(sys); err != nil {
			return nil, err
		}
	}
	left := len(sys.ReplicaSet)
	main := app.Main
	app.Main = func(th *replication.Thread, socks *tcprep.Sockets) {
		main(th, socks)
		if left--; left == 0 {
			sys.Sim.Stop()
		}
	}
	sys.Run(app)
	if err := sys.Sim.Run(); !errors.Is(err, sim.ErrStopped) {
		if err == nil {
			err = fmt.Errorf("workload incomplete: %d replica mains still running at %v", left, sys.Sim.Now())
		}
		return nil, err
	}
	run := &sweepRun{sys: sys, finished: sys.Sim.Now(), snap: sys.Obs.Registry().Snapshot()}
	if run.log, err = ringNamed(sys, "ftns.log"); err != nil {
		return nil, err
	}
	if run.acks, err = ringNamed(sys, "ftns.acks"); err != nil {
		return nil, err
	}
	return run, nil
}

// ringNamed returns the deployment's fabric ring of the given name.
func ringNamed(sys *core.System, name string) (*shm.Ring, error) {
	for _, r := range sys.Fabric.Rings() {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("no fabric ring %q", name)
}

// histogram reads one histogram off a registry snapshot. A metric the
// registry does not hold is an error naming it, so a renamed metric cannot
// read as zero and win every comparison; so is one without samples, unless
// the cell says it may be empty (a workload that never commits has no
// commit waits).
func histogram(snap obs.Snapshot, name string, mayBeEmpty bool) (obs.HistogramSnap, error) {
	h, ok := snap.Histogram(name)
	if !ok {
		return h, fmt.Errorf("metric %s is not in the registry", name)
	}
	if h.Count == 0 && !mayBeEmpty {
		return h, fmt.Errorf("metric %s has no samples", name)
	}
	return h, nil
}

// hist is histogram on the run's snapshot; the first failure sticks in
// r.err, which the cell checks once after its reads.
func (r *sweepRun) hist(name string, mayBeEmpty bool) obs.HistogramSnap {
	h, err := histogram(r.snap, name, mayBeEmpty)
	if r.err == nil {
		r.err = err
	}
	return h
}

// sampleLag is a runSweep prepare hook adding a "replay.lag.sampled"
// histogram: Seq_global minus the first backup's Lamport frontier on a
// fixed 100 us cadence. The sampler is background work until the run stops,
// so the distribution covers the whole run, not just its end state.
func sampleLag(sys *core.System) error {
	hLag := sys.Obs.Registry().Histogram("replay.lag.sampled", "tuples")
	const every = 100 * time.Microsecond
	sys.Sim.SpawnAfter("lag-sampler", every, func(p *sim.Proc) {
		p.SetBackground(true)
		for {
			hLag.Observe(int64(sys.Primary.NS.SeqGlobal()) - int64(sys.Secondary.NS.ReplayHead()))
			p.Sleep(every)
		}
	})
	return nil
}

// lockLoop is the one synthetic workload of the replication sweeps:
// threads threads each run iters rounds of think, lock, 2 us of work,
// unlock. Thread i takes lock i mod locks, so locks=1 contends every
// thread on one mutex (all sections sequence under one object) and
// locks=threads gives each its own (sections sequence under distinct
// objects and may record and replay concurrently).
type lockLoop struct {
	threads, locks, iters int
	// think draws one round's think time from the simulation's source.
	think func(*rand.Rand) time.Duration
	// contend adds a lock/unlock of one extra mutex shared by all threads
	// on every eighth round: occasional cross-thread contention.
	contend bool
	// commitEvery requests an output commit every so many rounds (0:
	// never), right after the unlock — while the tuples of the section
	// just closed are still in flight, so the commit-wait histogram
	// measures the round trip rather than an already drained log.
	commitEvery int
}

// thinkUS draws whole microseconds in [lo, lo+span); thinkNS draws
// nanoseconds in [lo, lo+span). They consume the source differently, and
// the checked-in numbers of each sweep depend on which one it uses.
func thinkUS(lo, span int) func(*rand.Rand) time.Duration {
	return func(r *rand.Rand) time.Duration { return time.Duration(lo+r.Intn(span)) * time.Microsecond }
}

func thinkNS(lo, span time.Duration) func(*rand.Rand) time.Duration {
	return func(r *rand.Rand) time.Duration { return lo + time.Duration(r.Int63n(int64(span))) }
}

// run is the loop's main thread on one replica.
func (l lockLoop) run(root *replication.Thread, _ *tcprep.Sockets) {
	lib := root.Lib()
	var shared *pthread.Mutex
	if l.contend {
		shared = lib.NewMutex()
	}
	locks := make([]*pthread.Mutex, l.locks)
	for i := range locks {
		locks[i] = lib.NewMutex()
	}
	var threads []*replication.Thread
	for i := 0; i < l.threads; i++ {
		mu := locks[i%l.locks]
		threads = append(threads, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
			t := th.Task()
			for j := 0; j < l.iters; j++ {
				t.Compute(l.think(t.Kernel().Sim().Rand()))
				mu.Lock(t)
				t.Compute(2 * time.Microsecond)
				mu.Unlock(t)
				if l.contend && j%8 == 3 {
					shared.Lock(t)
					shared.Unlock(t)
				}
				if l.commitEvery > 0 && (j+1)%l.commitEvery == 0 {
					th.NS().OnStable(func() {})
				}
			}
		}))
	}
	for _, th := range threads {
		root.Join(th)
	}
}
