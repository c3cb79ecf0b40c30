package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
)

// TestShardedRejoinUnderChaos re-runs the double-kill resync under the
// dup-delay chaos preset with sharded det sections: duplicated acks and
// delayed log delivery must be absorbed by the per-object duplicate filter
// and the ring's FIFO delay clamp.
func TestShardedRejoinUnderChaos(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 11, Size: rejoinStreamTotal, Shards: 4}
	_, base := stream(t, sc, nil)
	sc.Chaos = "dup acks x2 0s..8s; delay log 150us 1s..3s; delay sync 100us 1s..3s; kill primary @2500ms; kill primary @10s"
	sys, out := stream(t, sc, nil)
	if out != base {
		t.Errorf("the client saw %q, the never-failed same-seed run's client %q", out, base)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
	if g := sys.Generation(); g < 2 {
		t.Errorf("generation = %d, want >= 2", g)
	}
}

// TestShardedTraceIdenticalAcrossRuns pins the determinism contract with
// sharding enabled: two same-seed runs through a full failover produce
// byte-identical trace streams even though independent det sections record
// and replay concurrently.
func TestShardedTraceIdenticalAcrossRuns(t *testing.T) {
	t.Parallel()
	run := func() []byte {
		sys := quietSystem(t, 11, core.WithTrace(), core.WithDetShards(4))
		sys.Run(core.App{Name: "locker", Main: lockMain(200)})
		sys.Sim.Schedule(150*time.Millisecond, func() {
			sys.Primary.Kernel.Panic("test kill", nil)
		})
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Obs.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed sharded runs produced different trace bytes")
	}
}
