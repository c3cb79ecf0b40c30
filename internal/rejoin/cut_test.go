package rejoin

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
)

// TestCheckpointBytesIsTheSummedFootprint: Bytes is 64 bytes of header,
// 16 per thread, object and send cursor, 16 plus the key and value per
// environment entry, 16 plus the name and data per application snapshot,
// and the TCP history's own footprint (24 per binding, 64 plus the input
// and output bytes per connection).
func TestCheckpointBytesIsTheSummedFootprint(t *testing.T) {
	cp := testCheckpoint()
	want := 64 + 16*2 + 16*2 + 16*1 + // header, threads, objects, sends
		(16 + len("FT_MODE") + len("replicated")) + (16 + len("HOME") + len("/")) +
		(16 + len("counter") + 4) + (16 + len("stream") + 150<<10) +
		24*1 + (64 + 150<<10) // one binding, one connection with 150 KiB of input
	if got := cp.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	if got := Genesis().Bytes(); got != 64 {
		t.Errorf("genesis Bytes = %d, want the 64-byte header alone", got)
	}
}

// lockApp is a small replicated program: three threads each take one of two
// mutexes 40 times, so the namespace ends with thread, object and global
// cursors to cut. afterRound, when set, runs in thread 1 between its
// sections after each round.
func lockApp(afterRound func(round int)) func(*replication.Thread) {
	return func(root *replication.Thread) {
		mus := []*pthread.Mutex{root.Lib().NewMutex(), root.Lib().NewMutex()}
		var ws []*replication.Thread
		for i := 0; i < 3; i++ {
			mu := mus[i%2]
			ws = append(ws, root.NS().SpawnThread(root, "w", func(th *replication.Thread) {
				for j := 0; j < 40; j++ {
					th.Task().Compute(time.Duration(1+th.FTPid()) * time.Microsecond)
					mu.Lock(th.Task())
					mu.Unlock(th.Task())
					if afterRound != nil && i == 1 {
						afterRound(j)
					}
				}
			}))
		}
		for _, w := range ws {
			root.Join(w)
		}
	}
}

// recordedPair boots a primary and a backup namespace over a log and an
// ack ring, both running lockApp under the same environment, and returns
// them with a bulk ring from the primary's kernel to the backup's.
func recordedPair(t *testing.T, afterRound func(pns *replication.Namespace, round int)) (*sim.Simulation, *replication.Namespace, *replication.Namespace, *kernel.Kernel, *kernel.Kernel, *shm.Ring) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	var kerns [2]*kernel.Kernel
	var parts [2]*hw.Partition
	for i, name := range []string{"primary", "backup"} {
		part, err := m.NewPartition(name, 4*i, 4*i+1)
		if err != nil {
			t.Fatal(err)
		}
		if kerns[i], err = kernel.Boot(part, kernel.Config{Name: name, Params: kp}); err != nil {
			t.Fatal(err)
		}
		parts[i] = part
	}
	cfg := replication.DefaultConfig()
	fabric := shm.NewFabric(s, parts[0].CrossLatency(parts[1]))
	log, acks := fabric.NewRing("ftns.log", 0, cfg.LogRingBytes), fabric.NewRing("ftns.acks", 1, 64<<10)
	pns := replication.NewPrimary("ftns", kerns[0], cfg, []*shm.Ring{log}, []*shm.Ring{acks})
	sns := replication.NewSecondary("ftns", kerns[1], cfg, log, acks)
	env := map[string]string{"HOME": "/", "FT_MODE": "replicated"}
	var hook func(int)
	if afterRound != nil {
		hook = func(round int) { afterRound(pns, round) }
	}
	pns.Start("app", env, lockApp(hook))
	sns.Start("app", env, lockApp(nil))
	return s, pns, sns, kerns[0], kerns[1], fabric.NewRing("rejoin.bulk", 0, 96<<10)
}

// TestCutAtSectionBoundaryMatchesReplay: a cut taken between two of a
// thread's sections mid-run is what the backup's replay reconstructs at
// the cut's watermark — VerifyReplay passes there, and a cut of the backup
// at that instant seals to the same digest.
func TestCutAtSectionBoundaryMatchesReplay(t *testing.T) {
	var cp, back *Checkpoint
	var verr error
	var s *sim.Simulation
	var pns, sns *replication.Namespace
	s, pns, sns, _, _, _ = recordedPair(t, func(pns *replication.Namespace, round int) {
		if round != 20 {
			return
		}
		cp = Cut(pns)
		cp.Seal()
		sns.OnReplayHead(cp.SeqGlobal, func() {
			verr = cp.VerifyReplay(sns)
			back = Cut(sns)
			back.Seal()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cp == nil || back == nil {
		t.Fatalf("cut taken: %v, replay reached it: %v", cp != nil, back != nil)
	}
	if cp.SeqGlobal == 0 || cp.SeqGlobal >= pns.SeqGlobal() || len(cp.Threads) != 4 || len(cp.Objs) == 0 || len(cp.Env) != 2 {
		t.Errorf("mid-run cut at Seq_global %d of %d with %d threads, %d objects, %d env entries",
			cp.SeqGlobal, pns.SeqGlobal(), len(cp.Threads), len(cp.Objs), len(cp.Env))
	}
	if verr != nil {
		t.Errorf("VerifyReplay at the cut's watermark: %v", verr)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Errorf("backup at the watermark cuts to\n%+v\nwant the primary's\n%+v", back, cp)
	}
}

// TestCutSendRecvVerifyRoundTrip: the primary's cut after its last section,
// sealed, sent over the bulk ring and reassembled on the backup's kernel,
// verifies against the backup's replayed namespace and equals a cut of it
// field for field.
func TestCutSendRecvVerifyRoundTrip(t *testing.T) {
	s, pns, sns, pk, bk, bulk := recordedPair(t, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cp := Cut(pns)
	cp.Seal()
	var got *Checkpoint
	var rerr error
	pk.Spawn("send", func(tk *kernel.Task) { Send(tk, bulk, cp) })
	bk.Spawn("recv", func(tk *kernel.Task) { got, rerr = Recv(tk, bulk) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("Recv: %v", rerr)
	}
	if err := got.VerifyReplay(sns); err != nil {
		t.Errorf("VerifyReplay of the received cut: %v", err)
	}
	back := Cut(sns)
	back.Seal()
	for _, c := range []*Checkpoint{got, back} {
		if c.Sum != cp.Sum || c.SeqGlobal != cp.SeqGlobal || c.NextFTPid != cp.NextFTPid ||
			!reflect.DeepEqual(c.Threads, cp.Threads) || !reflect.DeepEqual(c.Objs, cp.Objs) || !reflect.DeepEqual(c.Env, cp.Env) {
			t.Errorf("sent %+v\nreceived %+v\nbackup cuts to %+v", cp, got, back)
		}
	}
}

// TestVerifyReplayNamesEachMismatch: each field VerifyReplay compares, when
// the checkpoint disagrees with the namespace, fails with an error that
// wraps ErrChecksumMismatch and names the field.
func TestVerifyReplayNamesEachMismatch(t *testing.T) {
	s, _, sns, _, _, _ := recordedPair(t, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(cp *Checkpoint)
	}{
		{"Seq_global", func(cp *Checkpoint) { cp.SeqGlobal++ }},
		{"next ft_pid", func(cp *Checkpoint) { cp.NextFTPid++ }},
		{"thread cursors", func(cp *Checkpoint) { cp.Threads = cp.Threads[1:] }},
		{"at Seq_thread", func(cp *Checkpoint) { cp.Threads[2].Seq++ }},
		{"object cursors", func(cp *Checkpoint) { cp.Objs = append(cp.Objs, replication.ObjCursor{Obj: 99}) }},
		{"at Seq_obj", func(cp *Checkpoint) { cp.Objs[0].Seq-- }},
		{"env entries", func(cp *Checkpoint) { cp.Env = cp.Env[:1] }},
		{"env HOME=", func(cp *Checkpoint) { cp.Env[1].Value = "/root" }},
	} {
		cp := Cut(sns)
		if err := cp.VerifyReplay(sns); err != nil {
			t.Fatalf("unmutated cut: %v", err)
		}
		tc.mutate(cp)
		err := cp.VerifyReplay(sns)
		if !errors.Is(err, ErrChecksumMismatch) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s mismatch: err = %v, want ErrChecksumMismatch naming %q", tc.field, err, tc.field)
		}
	}
}

// TestCutterReusesOnlyItsOwnBuffers pins a cut's buffer lifetime: a
// Cutter's next cut writes over its last one's cursor vectors, while a
// checkpoint from Cut — the kind a replica retains — keeps its cursors and
// its digest through every later cut of either kind.
func TestCutterReusesOnlyItsOwnBuffers(t *testing.T) {
	var c Cutter
	var kept, scratch *Checkpoint
	var keptThreads []replication.SeqCursor
	var keptObjs []replication.ObjCursor
	s, _, _, _, _, _ := recordedPair(t, func(pns *replication.Namespace, round int) {
		switch round {
		case 10:
			kept = Cut(pns)
			kept.Seal()
			keptThreads, keptObjs = slices.Clone(kept.Threads), slices.Clone(kept.Objs)
			scratch = c.Cut(pns)
		case 30:
			again := c.Cut(pns)
			again.Seal()
			if again != scratch || &again.Threads[0] != &scratch.Threads[0] || &again.Objs[0] != &scratch.Objs[0] {
				t.Error("the cutter's second cut did not reuse its first one's buffers")
			}
			Cut(pns).Seal()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if kept == nil || scratch == nil {
		t.Fatal("no cut taken")
	}
	if !slices.Equal(kept.Threads, keptThreads) || !slices.Equal(kept.Objs, keptObjs) {
		t.Errorf("a retained cut's cursors moved under later cuts: %v %v, want %v %v", kept.Threads, kept.Objs, keptThreads, keptObjs)
	}
	if kept.digest() != kept.Sum {
		t.Error("a retained cut no longer matches its digest")
	}
	if slices.Equal(scratch.Threads, keptThreads) {
		t.Error("the cutter's cut still reads round 10's cursors after its round-30 cut")
	}
}

// TestDigestIsPinned: the digest of a checkpoint with every kind of record
// is the one its text form "e9|s12345|w777|p7|t1:4000|…" has always hashed
// to, so a change to how it is computed moves no Sum.
func TestDigestIsPinned(t *testing.T) {
	cp := testCheckpoint()
	if cp.Sum != 0xc15d61f739fe147d {
		t.Errorf("digest %#x, want 0xc15d61f739fe147d", cp.Sum)
	}
	c := &cp.TCP.Conns[0]
	c.Sync, c.ISS, c.PeerFin, c.Out = 5, 1<<63+5, true, []byte("out")
	if cp.Seal(); cp.Sum != 0x6f52c2bf5fd1006d {
		t.Errorf("with a synced, finished connection: digest %#x, want 0x6f52c2bf5fd1006d", cp.Sum)
	}
	if got := Genesis().Sum; got != 0xc662f1464e955079 {
		t.Errorf("genesis digest %#x, want 0xc662f1464e955079", got)
	}
}
