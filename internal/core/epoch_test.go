package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
)

// TestEpochBoundsRetention is the tentpole's retention claim at the
// deployment level: with epoch checkpoints on, both sides truncate their
// retained tuple logs at verified boundaries and end the run holding a
// bounded tail; the identical epochs-off run retains the entire history.
func TestEpochBoundsRetention(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 5, Size: 16 << 20}
	on, outOn := stream(t, sc, nil, core.WithEpochCheckpoints(300*time.Millisecond, 0))
	off, outOff := stream(t, sc, nil)
	if outOn != outOff {
		t.Errorf("the epochs-on run's client saw %q, the epochs-off run's %q", outOn, outOff)
	}

	ps := on.Active().NS.Stats()
	if ps.EpochCuts < 4 {
		t.Fatalf("primary cut %d epochs in an 8s stream at 300ms, want several", ps.EpochCuts)
	}
	if ps.LogTruncated == 0 {
		t.Error("primary never truncated its retained log")
	}
	if ss := on.Standby().NS.Stats(); ss.LogTruncated == 0 {
		t.Error("backup never truncated its retained log")
	}
	total4 := int(ps.LogMessages)
	if r := on.Active().NS.RetainedTuples(); r >= total4/2 {
		t.Errorf("primary retains %d of %d tuples; truncation ineffective", r, total4)
	}
	if r := on.Standby().NS.RetainedTuples(); r >= total4/2 {
		t.Errorf("backup retains %d of %d tuples; truncation ineffective", r, total4)
	}

	// The epochs-off control must not have truncated anything: it retains
	// the full history, strictly more than the epoch run kept.
	ops := off.Active().NS.Stats()
	if ops.LogTruncated != 0 || ops.EpochCuts != 0 {
		t.Errorf("epochs-off run truncated %d tuples over %d cuts, want none",
			ops.LogTruncated, ops.EpochCuts)
	}
	if offR, onR := off.Active().NS.RetainedTuples(), on.Active().NS.RetainedTuples(); offR <= onR {
		t.Errorf("epochs-off retains %d tuples <= epochs-on %d; control invalid", offR, onR)
	}
	if d := on.Standby().NS.Stats().Divergences; d != 0 {
		t.Errorf("backup recorded %d divergences", d)
	}
}

// TestEpochRejoinRacesConcurrentCut shortens the epoch interval to 50 ms
// so cuts keep landing while the rejoined backup is still seeding and
// catching up: markers cross the resync window and must verify on the
// fresh replica once its apps are restored, without divergence or a
// stalled stream.
func TestEpochRejoinRacesConcurrentCut(t *testing.T) {
	t.Parallel()
	// The stream must outlive the rejoin (kill@2s + 3s delay + 1s driver
	// load ≈ 6s): at 100 Mb/s the client has ~41 MiB by then, so 48 MiB
	// keeps tuples — and 50 ms epoch markers — flowing across and past the
	// resync window, while the post-resync tail (paced by output commit to
	// the fresh backup) still finishes well inside the deadline.
	sc := oracle.Scenario{SimSeed: 9, Size: 48 << 20}
	every := core.WithEpochCheckpoints(50*time.Millisecond, 0)
	_, base := stream(t, sc, nil, every)
	sc.Chaos = "kill primary @2s"
	sys, out := stream(t, sc, nil, every)
	if out != base {
		t.Errorf("the client saw %q, the never-failed baseline's client %q", out, base)
	}
	if g := sys.Generation(); g != 1 {
		t.Errorf("generation = %d, want 1", g)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
	// The post-rejoin backup must itself have resumed verifying and
	// truncating: retention stays bounded across generations.
	if ss := sys.Standby().NS.Stats(); ss.LogTruncated == 0 {
		t.Error("rejoined backup never truncated; epoch verification did not resume")
	}
}

// TestEpochKillDuringPreCopy inflates the modeled copy cost so the
// iterative pre-copy passes occupy most of each epoch interval, then
// kills the primary while the cut pipeline is hot: the in-flight cut and
// its pending checkpoint die with the primary, and failover must still
// produce the never-failed byte stream from replayed state alone.
func TestEpochKillDuringPreCopy(t *testing.T) {
	t.Parallel()
	sc := oracle.Scenario{SimSeed: 13, Size: 32 << 20}
	opts := []core.Option{
		core.WithEpochCheckpoints(time.Second, 0),
		func(c *core.Config) { c.Epochs.PerByteCopyCost = time.Microsecond },
	}
	_, base := stream(t, sc, nil, opts...)
	sc.Chaos = "kill primary @2500ms"
	sys, out := stream(t, sc, nil, opts...)
	if out != base {
		t.Errorf("the client saw %q, the never-failed baseline's client %q", out, base)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
}
