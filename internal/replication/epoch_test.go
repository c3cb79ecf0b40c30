package replication_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
)

// stateDigest summarizes a namespace's replicated progress — Seq_global
// plus every thread and object cursor. Both sides compute it at the same
// quiesced log watermark, so equality means the replayed state reproduces
// the recorded state at the epoch boundary.
func stateDigest(ns *replication.Namespace) uint64 {
	h := fnv.New64a()
	seq, threads := ns.Cursors(nil)
	fmt.Fprintf(h, "s%d", seq)
	for _, c := range threads {
		fmt.Fprintf(h, "|t%d:%d", c.FTPid, c.Seq)
	}
	for _, o := range ns.ObjCursors(nil) {
		fmt.Fprintf(h, "|o%d:%d", o.Obj, o.Seq)
	}
	return h.Sum64()
}

// startCutter runs a primary-side epoch cutter that cuts whenever new
// tuples were recorded since the last cut, until *stop is set. badDigest
// substitutes a corrupted digest for epoch `corrupt` (0 = never).
func startCutter(d *duo, period time.Duration, stop *bool, corrupt uint64) {
	d.pk.Spawn("epoch-cutter", func(t *kernel.Task) {
		var epoch, lastSeq uint64
		for !*stop {
			t.Sleep(period)
			if d.pns.SeqGlobal() == lastSeq {
				continue
			}
			release := d.pns.Quiesce(t)
			seq, sent := d.pns.LogWatermark()
			epoch++
			digest := stateDigest(d.pns)
			if epoch == corrupt {
				digest = ^digest
			}
			d.pns.EmitEpoch(t, replication.EpochMark{
				Epoch: epoch, SeqGlobal: seq, Sent: sent, Digest: digest,
			}, 64)
			release()
			lastSeq = seq
		}
	})
}

// verifyDigest installs the backup-side boundary check: recompute the
// digest from the replayed state, quiesced at the marker's frontier.
func verifyDigest(ns *replication.Namespace) {
	ns.OnEpoch(func(mark replication.EpochMark) bool {
		return stateDigest(ns) == mark.Digest
	})
}

// TestEpochTruncationBothSides drives a contended multi-threaded workload
// under a periodic epoch cutter: every boundary must digest-verify on the
// backup, and both sides must truncate their retained tuple logs at the
// verified boundaries instead of retaining the full history.
func TestEpochTruncationBothSides(t *testing.T) {
	cfg := replication.DefaultConfig()
	d := newDuo(t, 1, cfg, true)
	// The primary may truncate only at an epoch the backup has verified.
	var verified uint64 // the last epoch whose digest matched
	d.sns.OnEpoch(func(mark replication.EpochMark) bool {
		ok := stateDigest(d.sns) == mark.Digest
		if ok {
			verified = mark.Epoch
		}
		return ok
	})
	d.pns.OnEpochQuorum(func(epoch uint64) {
		if epoch > verified {
			t.Errorf("primary truncated at epoch %d; the backup has verified only up to %d", epoch, verified)
		}
	})
	var pOrder, sOrder []int
	stop := false
	d.pns.Start("app", nil, lockOrderApp(&pOrder, 6, 15))
	d.sns.Start("app", nil, lockOrderApp(&sOrder, 6, 15))
	startCutter(d, time.Millisecond, &stop, 0)
	// Let replay drain past the last boundary, then stop the cutter.
	d.pk.Spawn("stopper", func(tk *kernel.Task) {
		for len(pOrder) < 6*15 || len(sOrder) < 6*15 {
			tk.Sleep(time.Millisecond)
		}
		tk.Sleep(20 * time.Millisecond)
		stop = true
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range pOrder {
		if pOrder[i] != sOrder[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, pOrder[i], sOrder[i])
		}
	}
	ps, ss := d.pns.Stats(), d.sns.Stats()
	if ss.Divergences != 0 {
		t.Fatalf("%d divergences", ss.Divergences)
	}
	if ps.EpochCuts < 2 {
		t.Fatalf("only %d epoch cuts, want several", ps.EpochCuts)
	}
	if ps.LogTruncated == 0 {
		t.Error("primary never truncated its retained log")
	}
	if ss.LogTruncated == 0 {
		t.Error("backup never truncated its retained log")
	}
	// The retained tail is bounded by what arrived after the last verified
	// boundary — a small fraction of the full history.
	total := int(ps.LogMessages)
	if r := d.pns.RetainedTuples(); r >= total/2 {
		t.Errorf("primary retains %d of %d tuples; truncation ineffective", r, total)
	}
	if r := d.sns.RetainedTuples(); r >= total/2 {
		t.Errorf("backup retains %d of %d tuples; truncation ineffective", r, total)
	}
}

// TestEpochDigestMismatchDiverges corrupts one epoch marker's digest
// mid-run: the backup's boundary verification must detect the mismatch and
// halt the replica as diverged instead of truncating over corrupt state.
func TestEpochDigestMismatchDiverges(t *testing.T) {
	cfg := replication.DefaultConfig()
	cfg.PanicOnDivergence = true
	d := newDuo(t, 2, cfg, true)
	var verified uint64 // Sent of the last marker whose digest matched
	d.sns.OnEpoch(func(mark replication.EpochMark) bool {
		ok := stateDigest(d.sns) == mark.Digest
		if ok {
			verified = mark.Sent
		}
		return ok
	})
	var pOrder, sOrder []int
	stop := false
	d.pns.Start("app", nil, lockOrderApp(&pOrder, 4, 20))
	d.sns.Start("app", nil, lockOrderApp(&sOrder, 4, 20))
	startCutter(d, time.Millisecond, &stop, 2) // corrupt the 2nd epoch
	d.pk.Spawn("stopper", func(tk *kernel.Task) {
		for len(pOrder) < 4*20 {
			tk.Sleep(time.Millisecond)
		}
		tk.Sleep(20 * time.Millisecond)
		stop = true
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if div := d.sns.Stats().Divergences; div == 0 {
		t.Fatal("backup verified a corrupted epoch digest without diverging")
	}
	if d.sk.Alive() {
		t.Error("diverged backup kernel still alive")
	}
	if !d.pk.Alive() {
		t.Error("primary killed by a backup-side divergence")
	}
	// The first (intact) epoch may have truncated; the corrupted one must
	// not have acked, so the primary cannot have truncated past it.
	if got := d.pns.Stats().EpochCuts; got < 2 {
		t.Fatalf("cutter emitted %d epochs, want >= 2", got)
	}
	// Nor may the backup have truncated at the corrupted boundary: its
	// window still starts at the intact epoch's marker, and that is all it
	// ever dropped.
	if verified == 0 {
		t.Fatal("the intact first epoch never verified")
	}
	if base, dropped := d.sns.ReplayWindowBase(), d.sns.Stats().LogTruncated; base != verified || dropped != verified {
		t.Errorf("backup window base %d, %d messages truncated; want both at the last verified marker %d", base, dropped, verified)
	}
}

// TestEpochQuorumGatesPrimaryTruncation leaves the backup without a
// boundary verifier: markers are never acknowledged, so the primary must
// keep its full retained history — truncating without a verification
// quorum would discard the only copy of rejoin catch-up state.
func TestEpochQuorumGatesPrimaryTruncation(t *testing.T) {
	cfg := replication.DefaultConfig()
	d := newDuo(t, 3, cfg, true)
	// No OnEpoch on the backup: markers pass through unverified.
	var pOrder, sOrder []int
	stop := false
	d.pns.Start("app", nil, lockOrderApp(&pOrder, 4, 10))
	d.sns.Start("app", nil, lockOrderApp(&sOrder, 4, 10))
	startCutter(d, time.Millisecond, &stop, 0)
	d.pk.Spawn("stopper", func(tk *kernel.Task) {
		for len(pOrder) < 4*10 || len(sOrder) < 4*10 {
			tk.Sleep(time.Millisecond)
		}
		tk.Sleep(20 * time.Millisecond)
		stop = true
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	ps := d.pns.Stats()
	if ps.EpochCuts < 2 {
		t.Fatalf("only %d epoch cuts", ps.EpochCuts)
	}
	if ps.LogTruncated != 0 {
		t.Errorf("primary truncated %d tuples with no verified epoch ack", ps.LogTruncated)
	}
	if d.sns.Stats().Divergences != 0 {
		t.Errorf("unexpected divergence")
	}
}

// TestZeroCheckpointSeedIsIdentity seeds a fresh secondary from the all-zero
// (genesis) checkpoint — the seed of every epochs-off rejoin — and requires
// it to behave exactly as an unseeded one: same grants in the same order at
// the same virtual instants, and the application still waits for the env
// message off the ring instead of starting on the seed's empty env.
func TestZeroCheckpointSeedIsIdentity(t *testing.T) {
	type grant struct {
		id int
		at sim.Time
	}
	run := func(seed bool) (order []grant, env string, st replication.Stats) {
		d := newDuo(t, 3, replication.DefaultConfig(), true)
		if seed {
			d.sns.SeedCheckpoint(0, 0, 0, nil, map[string]string{})
			d.sns.ResumeFrom(nil, 1)
		}
		var pOrder, sOrder []int
		d.pns.Start("app", map[string]string{"MODE": "replicated"}, lockOrderApp(&pOrder, 4, 10))
		d.sns.Start("app", nil, func(root *replication.Thread) {
			env = root.NS().Getenv("MODE")
			lockOrderApp(&sOrder, 4, 10)(root)
		})
		d.sk.Spawn("observer", func(tk *kernel.Task) {
			for len(order) < 4*10 {
				for _, id := range sOrder[len(order):] {
					order = append(order, grant{id, tk.Now()})
				}
				tk.Sleep(10 * time.Microsecond)
			}
		})
		if err := d.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return order, env, d.sns.Stats()
	}
	plain, plainEnv, plainStats := run(false)
	seeded, seededEnv, seededStats := run(true)
	if plainEnv != "replicated" || seededEnv != "replicated" {
		t.Errorf("secondary env MODE = %q unseeded / %q seeded, want the primary's value on both", plainEnv, seededEnv)
	}
	if !reflect.DeepEqual(plain, seeded) {
		t.Errorf("zero-seeded replay differs from unseeded replay:\n%v\n%v", plain, seeded)
	}
	if plainStats != seededStats {
		t.Errorf("stats differ: unseeded %+v, zero-seeded %+v", plainStats, seededStats)
	}
	if plainStats.Divergences != 0 || plainStats.Sections == 0 {
		t.Errorf("control run invalid: %+v", plainStats)
	}
}

// TestRetainedBytesIsARunningSum: the retained-log gauge reads a counter,
// not a walk over the history, on both engines; the counter must equal the
// walked sum after epoch truncation on both sides, and after a promotion
// has forked the replayed history into a recorder that keeps appending.
func TestRetainedBytesIsARunningSum(t *testing.T) {
	cfg := replication.DefaultConfig()
	d := newDuo(t, 1, cfg, true)
	verifyDigest(d.sns)
	var pCount, sCount int
	stop := false
	d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 1000))
	d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 1000))
	startCutter(d, time.Millisecond, &stop, 0)
	check := func(when string, ns *replication.Namespace) {
		t.Helper()
		recRun, recWalk, repRun, repWalk := ns.RetainedSums()
		if recRun != recWalk || repRun != repWalk {
			t.Errorf("%s, %s: recorder %d running vs %d walked, replayer %d vs %d", when, ns.Name(), recRun, recWalk, repRun, repWalk)
		}
		if got := ns.RetainedBytes(); got == 0 || (got != recRun && got != repRun) {
			t.Errorf("%s, %s: RetainedBytes = %d, sums %d / %d", when, ns.Name(), got, recRun, repRun)
		}
	}
	d.sim.Schedule(30*time.Millisecond, func() {
		if d.pns.Stats().LogTruncated == 0 || d.sns.Stats().LogTruncated == 0 {
			t.Errorf("no truncation before the kill: primary %d, backup %d", d.pns.Stats().LogTruncated, d.sns.Stats().LogTruncated)
		}
		check("after truncation", d.pns)
		check("after truncation", d.sns)
		stop = true
		d.pk.Panic("injected failure", nil)
		d.sns.Replayer().Promote()
	})
	if err := d.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sCount != 4*1000 || pCount == 4*1000 {
		t.Fatalf("secondary finished %d of %d increments, primary %d: the kill must land mid-run", sCount, 4*1000, pCount)
	}
	if !d.sns.Recording() {
		t.Fatal("promotion did not fork a recorder")
	}
	check("after promotion", d.sns)
}
