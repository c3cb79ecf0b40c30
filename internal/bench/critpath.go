package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// CritPathPoint is the critical-path attribution of one traced workload
// run: where the time behind every committed output actually went, per
// stage of the record→flush→transfer→replay→ack pipeline.
type CritPathPoint struct {
	Workload string `json:"workload"` // "detshard" or "fabric-sustained"
	Threads  int    `json:"threads"`
	Shards   int    `json:"shards"`
	Batch    int    `json:"batch_tuples"`

	Outputs int `json:"outputs"` // committed outputs attributed
	Events  int `json:"events"`  // trace events analyzed

	// Stages is the per-stage distribution across every committed output
	// (causal.Attribute over the run's full event trace).
	Stages []causal.StageStat `json:"stages"`
	// DominantStage is the stage with the largest attributed total — the
	// pipeline's current bottleneck for this workload.
	DominantStage string `json:"dominant_stage"`

	SimMS       float64 `json:"sim_ms"`
	WallClockMS float64 `json:"wallclock_ms"`
}

// CritPathReport is the checked-in BENCH_critpath.json shape.
type CritPathReport struct {
	Points []CritPathPoint `json:"points"`
}

// CritPathOpts bounds the attribution runs.
type CritPathOpts struct {
	Seed    int64
	Threads int
	Shards  int // the sharded detshard setting compared against 1
}

// DefaultCritPathOpts matches the detshard/fabric sweeps' headline cell.
func DefaultCritPathOpts() CritPathOpts {
	return CritPathOpts{Seed: 1, Threads: 8, Shards: 4}
}

// CritPath runs the attribution benchmark: the detshard workload at one
// shard and at opts.Shards (the bottleneck should move off replay-grant
// when sharded), and the fabric sustained-overload workload (commit-wait
// on the bounded ring should dominate).
func CritPath(opts CritPathOpts) (CritPathReport, error) {
	var report CritPathReport
	for _, cell := range []struct {
		workload string
		shards   int
		batch    int
	}{
		{"detshard", 1, 0},
		{"detshard", opts.Shards, 0},
		{"fabric-sustained", 1, 8},
	} {
		p, err := critPathPoint(cell.workload, opts.Threads, cell.shards, cell.batch, opts)
		if err != nil {
			return report, fmt.Errorf("bench: critpath %s %dt/%ds: %w", cell.workload, opts.Threads, cell.shards, err)
		}
		report.Points = append(report.Points, p)
	}
	return report, nil
}

// critPathPoint runs one traced workload and attributes it. The harness
// mirrors detShardPoint/fabricPoint but wires a retaining tracer with the
// same scope names core uses, so the causal layer's ring pairing
// ("primary/ftns" → "shm/ftns.log") works identically to a full system.
func critPathPoint(workload string, threads, shards, batch int, opts CritPathOpts) (CritPathPoint, error) {
	point := CritPathPoint{Workload: workload, Threads: threads, Shards: shards, Batch: batch}
	start := time.Now()

	s := sim.New(opts.Seed)
	defer s.Shutdown()
	m := hw.New(s, hw.Opteron6376x4())
	pp, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		return point, err
	}
	sp, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		return point, err
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		return point, err
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		return point, err
	}

	cfg := replication.DefaultConfig()
	cfg.DetShards = shards
	cfg.LogRingBytes = 16 << 10
	if batch > 0 {
		cfg.BatchTuples = batch
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 256<<10)
	pns := replication.NewPrimary("ftns", pk, cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", sk, cfg, log, acks)

	tr := obs.New(s, obs.Config{Trace: true})
	pns.Instrument(tr.Scope("primary/ftns"), tr.Registry())
	sns.Instrument(tr.Scope("secondary/ftns"), nil)
	log.Instrument(tr.Scope("shm/ftns.log"))
	acks.Instrument(tr.Scope("shm/ftns.acks"))

	var pst, sst detShardStats
	sopts := DefaultDetShardOpts()
	sopts.Seed = opts.Seed
	mkApp := func(st *detShardStats) (func(*replication.Thread), error) {
		switch workload {
		case "detshard":
			return detShardApp(threads, false, sopts, st), nil
		case "fabric-sustained":
			wl := fabricWorkloadFor("sustained", DefaultFabricOpts())
			wl.detShards = shards
			return fabricApp(threads, wl, st), nil
		}
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	papp, err := mkApp(&pst)
	if err != nil {
		return point, err
	}
	sapp, _ := mkApp(&sst)
	pns.Start("critpath", nil, papp)
	sns.Start("critpath", nil, sapp)
	if err := s.Run(); err != nil {
		return point, err
	}
	if !pst.Done || !sst.Done {
		return point, fmt.Errorf("workload incomplete: primary=%v secondary=%v", pst.Done, sst.Done)
	}

	a := causal.Attribute(causal.Build(tr.Events()))
	point.Outputs = len(a.Outputs)
	point.Events = len(tr.Events())
	point.Stages = a.Stages
	var maxTotal int64 = -1
	for _, st := range a.Stages {
		if st.TotalNs > maxTotal {
			maxTotal = st.TotalNs
			point.DominantStage = st.Stage
		}
	}
	point.SimMS = float64(sst.FinishedAt) / float64(time.Millisecond)
	point.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	return point, nil
}
