package main

import (
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

var compress = workload{
	name: "compress",
	why: "PBZIP2, 25 KiB blocks (below the Fig. 4 knee), no sockets: replay dispatch bounds throughput; " +
		"pthread, replication and the shm log ring do the work; tcprep, tcpstack and simnet must read zero",
	build: buildCompress,
}

// Nominal shape (scale 1): 12 000 blocks of 25 KiB through 32 workers;
// throughput is measured from 2 s to the recording replica's finish, and
// the run is capped at 16 s of virtual time.
const (
	compressBlocks = 12000
	compressWarmUp = 2 * time.Second
	compressCap    = 16 * time.Second
)

func buildCompress(c buildCfg) (*deployment, error) {
	// The deep-idle wake penalty (50 us to 15 ms, drawn per wake) is off
	// here, as in the repository's other exact-distribution benches. With
	// it on, about one seed in twelve (6 and 22 of the first 24) tips both
	// replicas into a mostly-idle mode once the log ring fills and sustains
	// 272 blocks/s instead of 1570; with it off every seed sustains 1570,
	// the figure the normal mode gives with it on.
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	srv, err := boot(c, core.WithKernelParams(kp))
	if err != nil {
		return nil, err
	}
	pcfg := pbzip2.DefaultConfig() // 32 workers
	pcfg.BlockSize = 25 << 10
	pcfg.MaxBlocks = int(float64(compressBlocks) * c.scale)
	if pcfg.MaxBlocks < pcfg.Workers {
		pcfg.MaxBlocks = pcfg.Workers
	}
	// One Stats per replica, in launch order: the recording replica first.
	var stats []*pbzip2.Stats
	byNS := make(map[*replication.Namespace]*pbzip2.Stats)
	srv.launch("pbzip2", func(th *replication.Thread, _ *tcprep.Sockets) {
		st := &pbzip2.Stats{}
		stats = append(stats, st)
		byNS[th.NS()] = st
		pbzip2.Run(th, pcfg, st)
	})

	replicas := 1
	if srv.sys != nil {
		replicas = len(srv.sys.ReplicaSet)
	}
	d := newDeployment(srv, sim.Time(c.scaled(compressCap)))
	d.done = func() bool {
		if len(stats) < replicas {
			return false
		}
		for _, st := range stats {
			if !st.Done {
				return false
			}
		}
		return true
	}
	d.finish = func() *outcome {
		out := &outcome{attempted: pcfg.MaxBlocks}
		rec := byNS[srv.recordingNS()]
		if rec == nil {
			out.failed = out.attempted
			out.failf("the recording replica never started")
			return out
		}
		out.ops = float64(rec.Blocks)
		out.failed = out.attempted - rec.Blocks
		want := pbzip2.ExpectChecksum(pcfg)
		for i, st := range stats {
			if !st.Done {
				out.failf("replica %d not done at the %v cap: %d of %d blocks", i, d.horizon, st.Blocks, pcfg.MaxBlocks)
			} else if st.Checksum != want {
				out.failed = out.attempted
				out.failf("replica %d checksum %x, want %x", i, st.Checksum, want)
			}
		}
		// Blocks written from the warm-up mark to the recording replica's
		// finish; a run too short to outlast the warm-up measures it all.
		from, to := sim.Time(c.scaled(compressWarmUp)), rec.FinishedAt
		if !rec.Done {
			to = d.horizon
		}
		if from >= to {
			from = 0
		}
		for _, at := range rec.BlockTimes {
			if at >= from && at < to {
				out.windowOps++
			}
		}
		out.window = to.Sub(from)
		return out
	}
	return d, nil
}
