package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// partitions carves the two four-node partitions every two-kernel cell
// runs on out of the paper's 4x Opteron 6376 machine.
func partitions(s *sim.Simulation) (primary, secondary *hw.Partition, err error) {
	m := hw.New(s, hw.Opteron6376x4())
	if primary, err = m.NewPartition("primary", 0, 1, 2, 3); err != nil {
		return nil, nil, err
	}
	secondary, err = m.NewPartition("secondary", 4, 5, 6, 7)
	return primary, secondary, err
}

// pair is the two-kernel rig the replication sweeps share: a primary and
// a secondary FT-Namespace on their own kernels, joined by one log ring
// and one ack ring, with no network and no failure detector — only what
// the record/replay pipeline needs.
type pair struct {
	s         *sim.Simulation
	pns, sns  *replication.Namespace
	log, acks *shm.Ring
	reg       *obs.Registry
	tr        *obs.Tracer // nil unless traced

	pst, sst loopStats    // runLoop's progress on each replica
	finished sim.Time     // when the secondary finished runLoop's workload
	snap     obs.Snapshot // the registry once runLoop's workload is done
	err      error        // the first metric hist did not find as required
}

// newPair builds the rig on s. tune adjusts the replication defaults (det
// shards, ring size, batch policy). traced wires a retaining tracer with
// the scope names core uses, so the causal layer's ring pairing
// ("primary/ftns" -> "shm/ftns.log") works as in a full deployment;
// otherwise only a metrics registry is attached, which keeps the hot path
// at one pointer test per emit.
func newPair(s *sim.Simulation, tune func(*replication.Config), traced bool) (*pair, error) {
	pp, sp, err := partitions(s)
	if err != nil {
		return nil, err
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0 // exact per-point counts and distributions
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		return nil, err
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		return nil, err
	}
	cfg := replication.DefaultConfig()
	tune(&cfg)
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	p := &pair{s: s}
	p.log = fabric.NewRing("log", 0, cfg.LogRingBytes)
	p.acks = fabric.NewRing("acks", 1, 256<<10)
	p.pns = replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{p.log}, []*shm.Ring{p.acks})
	p.sns = replication.NewSecondary("ftns", sk, cfg, p.log, p.acks)
	if traced {
		p.tr = obs.New(s, obs.Config{Trace: true})
		p.reg = p.tr.Registry()
		p.pns.Instrument(p.tr.Scope("primary/ftns"), p.reg)
		p.sns.Instrument(p.tr.Scope("secondary/ftns"), nil)
		p.log.Instrument(p.tr.Scope("shm/ftns.log"))
		p.acks.Instrument(p.tr.Scope("shm/ftns.acks"))
	} else {
		p.reg = obs.NewRegistry()
		p.pns.Instrument(nil, p.reg)
		p.sns.Instrument(nil, p.reg)
	}
	return p, nil
}

// run starts one copy of the app on each replica and runs the simulation
// until nothing is left to do.
func (p *pair) run(name string, primary, secondary func(*replication.Thread)) error {
	p.pns.Start(name, nil, primary)
	p.sns.Start(name, nil, secondary)
	return p.s.Run()
}

// runLoop builds a rig, records and replays one lock loop on it, and
// returns the finished rig for the cell to read its counters off.
// sampleLag adds a "replay.lag.sampled" histogram: Seq_global minus the
// backup's Lamport frontier on a fixed 100 us cadence until both replicas
// are done — the sampler re-arms itself, so the distribution covers the
// whole run, not just its end state.
func runLoop(seed int64, name string, l lockLoop, tune func(*replication.Config), sampleLag, traced bool) (*pair, error) {
	s := sim.New(seed)
	defer s.Shutdown()
	p, err := newPair(s, tune, traced)
	if err != nil {
		return nil, err
	}
	if sampleLag {
		hLag := p.reg.Histogram("replay.lag.sampled", "tuples")
		var sample func()
		sample = func() {
			if p.pst.done+p.sst.done == 2 {
				return
			}
			hLag.Observe(int64(p.pns.SeqGlobal()) - int64(p.sns.ReplayHead()))
			s.Schedule(100*time.Microsecond, sample)
		}
		s.Schedule(100*time.Microsecond, sample)
	}
	err = p.run(name,
		func(th *replication.Thread) { l.run(th, &p.pst) },
		func(th *replication.Thread) { l.run(th, &p.sst) })
	if err != nil {
		return nil, err
	}
	if p.pst.done+p.sst.done != 2 {
		return nil, fmt.Errorf("workload incomplete: primary=%d secondary=%d", p.pst.done, p.sst.done)
	}
	p.finished, p.snap = p.sst.at, p.reg.Snapshot()
	return p, nil
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

// hist is histogram on the rig's snapshot; the first failure sticks in
// p.err, which the cell checks once after its reads.
func (p *pair) hist(name string, mayBeEmpty bool) obs.HistogramSnap {
	h, err := histogram(p.snap, name, mayBeEmpty)
	if p.err == nil {
		p.err = err
	}
	return h
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

// loopStats counts the replicas that finished a lockLoop and keeps the
// virtual time the last of them did.
type loopStats struct {
	done int
	at   sim.Time
}

// run is the loop's main thread on one replica.
func (l lockLoop) run(root *replication.Thread, st *loopStats) {
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
	st.done++
	st.at = root.Task().Now()
}
