package pbzip2_test

import (
	"testing"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
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
	sys, err := core.New(core.WithSeed(2), core.WithRejoin(false))
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
	sys, err := core.New(core.WithSeed(3), core.WithRejoin(false))
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
