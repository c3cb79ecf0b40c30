package pbzip2_test

import (
	"testing"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

func smallCfg() pbzip2.Config {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = 100 << 10
	cfg.Workers = 8
	cfg.MaxBlocks = 200
	return cfg
}

func TestBaselineCompressesEverything(t *testing.T) {
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	var st pbzip2.Stats
	base.LaunchApp("pbzip2", nil, func(th *replication.Thread, _ *tcprep.Sockets) { pbzip2.Run(th, cfg, &st) })
	if err := base.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Blocks != 200 {
		t.Fatalf("done=%v blocks=%d, want 200", st.Done, st.Blocks)
	}
	if st.Checksum != pbzip2.ExpectChecksum(cfg) {
		t.Error("output checksum mismatch")
	}
	if len(st.BlockTimes) != 200 {
		t.Errorf("recorded %d block times", len(st.BlockTimes))
	}
}

func TestReplicatedOutputsIdentical(t *testing.T) {
	sys, err := core.New(core.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	var pst, sst pbzip2.Stats
	sys.Primary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, cfg, &pst) })
	sys.Secondary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, cfg, &sst) })
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !pst.Done || !sst.Done {
		t.Fatalf("done: primary=%v secondary=%v", pst.Done, sst.Done)
	}
	want := pbzip2.ExpectChecksum(cfg)
	if pst.Checksum != want || sst.Checksum != want {
		t.Errorf("checksums %x / %x, want %x", pst.Checksum, sst.Checksum, want)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("%d replay divergences", div)
	}
}

func TestSurvivesPrimaryFailureMidCompression(t *testing.T) {
	sys, err := core.New(core.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.MaxBlocks = 600
	var pst, sst pbzip2.Stats
	sys.Primary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, cfg, &pst) })
	sys.Secondary.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, cfg, &sst) })
	sys.InjectPrimaryFailure(100*time.Millisecond, 0)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pst.Done {
		t.Skip("primary finished before the injected failure")
	}
	if !sst.Done || sst.Checksum != pbzip2.ExpectChecksum(cfg) {
		t.Fatalf("secondary did not complete identical output after failover: done=%v", sst.Done)
	}
}

// TestWriterNeverStallsUnderBackpressure runs Figure 4's 25 KB cell with
// every tuple streamed on its own, where the log ring throttles the
// primary to the backup's replay rate and the output queue runs full. The
// writer must keep writing through every quarter second: the worker
// holding its next block may take the queue's spare slot, so it cannot be
// starved of room by pushers that never slept. Without the spare slot the
// writer stalls from ~1.1 s on at this seed.
func TestWriterNeverStallsUnderBackpressure(t *testing.T) {
	sys, err := core.New(core.WithSeed(2), func(c *core.Config) { c.Replication.BatchTuples = 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = 25 << 10
	stats := make(map[*replication.Namespace]*pbzip2.Stats)
	sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		st := new(pbzip2.Stats)
		stats[th.NS()] = st
		pbzip2.Run(th, cfg, st)
	}})
	const quarter = 250 * time.Millisecond
	for end := quarter; end <= 3*time.Second; end += quarter {
		st := stats[sys.Primary.NS]
		before := 0
		if st != nil {
			before = st.Blocks
		}
		if err := sys.Sim.RunUntil(sim.Time(end)); err != nil {
			t.Fatal(err)
		}
		if st = stats[sys.Primary.NS]; st.Blocks == before {
			t.Fatalf("no block written between %v and %v (%d written)", end-quarter, end, st.Blocks)
		}
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("%d replay divergences", div)
	}
}

// TestPrimarySectionsPerBlock pins the sections the primary records per
// block (seed 1, 200 blocks of 100 KB). A wake-up records a section only
// when it finds a waiter, and it hands each waiter it wakes the queue
// mutex, so a woken wait records no re-lock: with one worker, the producer
// waits for room 135 times and the writer for every block, so each block
// costs the four queue operations' mutex_locks, the writer's wait, the
// worker's broadcast that wakes the writer, and — 135 times in 200 — the
// producer's wait and the signal that wakes it; eight more start and close
// the run: 1 478 sections. A wake-up that woke nobody used to record one
// too: 2 280 sections, 11.4 a block, and 1 824 with four workers.
func TestPrimarySectionsPerBlock(t *testing.T) {
	for _, row := range []struct {
		workers  int
		sections uint64
	}{{1, 1478}, {4, 1208}} {
		sys, err := core.New(core.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg()
		cfg.Workers = row.workers
		stats := make(map[*replication.Namespace]*pbzip2.Stats)
		sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
			st := new(pbzip2.Stats)
			stats[th.NS()] = st
			pbzip2.Run(th, cfg, st)
		}})
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		p, s := sys.Primary.NS.Stats(), sys.Secondary.NS.Stats()
		if blocks := stats[sys.Primary.NS].Blocks; blocks != cfg.MaxBlocks || p.Sections != row.sections {
			t.Errorf("%d workers: the primary recorded %d sections for %d blocks (%.2f a block), want %d for %d",
				row.workers, p.Sections, blocks, float64(p.Sections)/float64(blocks), row.sections, cfg.MaxBlocks)
		}
		if s.Sections != p.Sections || s.Divergences != 0 {
			t.Errorf("%d workers: the backup replayed %d sections with %d divergences, want %d and none",
				row.workers, s.Sections, s.Divergences, p.Sections)
		}
	}
}
