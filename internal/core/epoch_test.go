package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestEpochBoundsRetention is the tentpole's retention claim at the
// deployment level: with epoch checkpoints on, both sides truncate their
// retained tuple logs at verified boundaries and end the run holding a
// bounded tail; the identical epochs-off run retains the entire history.
func TestEpochBoundsRetention(t *testing.T) {
	t.Parallel()
	const total = 16 << 20
	on, hOn, _ := rejoinRun(t, "", 5, restorableStream, total,
		core.WithEpochCheckpoints(300*time.Millisecond, 0))
	off, hOff, _ := rejoinRun(t, "", 5, restorableStream, total)
	if hOn != hOff {
		t.Errorf("epochs-on stream hash %x != epochs-off hash %x", hOn, hOff)
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
	// the full rejoinable history, strictly more than the epoch run kept.
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
	const total = 48 << 20
	opts := []core.Option{core.WithEpochCheckpoints(50*time.Millisecond, 0)}
	sys, h, _ := rejoinRun(t, "kill primary @2s", 9, restorableStream, total, opts...)
	_, base, _ := rejoinRun(t, "", 9, restorableStream, total, opts...)
	if h != base {
		t.Errorf("stream hash %x != never-failed baseline %x", h, base)
	}
	if g := sys.Generation(); g != 1 {
		t.Errorf("generation = %d, want 1", g)
	}
	if st := sys.State(); st != core.StateReplicated {
		t.Errorf("end state = %v, want replicated", st)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
	if d := sys.Standby().NS.Stats().Divergences; d != 0 {
		t.Errorf("rejoined backup recorded %d divergences", d)
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
	const total = 32 << 20
	opts := []core.Option{
		core.WithEpochCheckpoints(time.Second, 0),
		core.WithEpochTuning(time.Microsecond, 4, 4<<10),
	}
	sys, h, _ := rejoinRun(t, "kill primary @2500ms", 13, restorableStream, total, opts...)
	_, base, _ := rejoinRun(t, "", 13, restorableStream, total, opts...)
	if h != base {
		t.Errorf("stream hash %x != never-failed baseline %x", h, base)
	}
	if inj := sys.Injector(); inj.Kills < 1 {
		t.Fatalf("injector delivered %d kills, want 1", inj.Kills)
	}
	if st := sys.State(); st != core.StateReplicated {
		t.Errorf("end state = %v, want replicated", st)
	}
	if err := sys.RejoinErr(); err != nil {
		t.Errorf("rejoin error: %v", err)
	}
	if d := sys.Active().NS.Stats().Divergences; d != 0 {
		t.Errorf("promoted replica recorded %d divergences", d)
	}
}
