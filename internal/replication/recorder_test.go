package replication

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// newRecorderHarness boots a bare recorder on a primary kernel with one
// backup link, so the ack path can be driven directly.
func newRecorderHarness(t *testing.T, cfg Config, ackRingBytes int64) (*sim.Simulation, *shm.Ring, *shm.Ring, *Recorder) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	pp, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, ackRingBytes)
	rec := newRecorder(pk, cfg.WithBatchDefaults(), []*shm.Ring{log}, []*shm.Ring{acks}, forkSeed{})
	return s, log, acks, rec
}

// TestAckLoopIgnoresStaleWatermark verifies that a non-increasing receipt
// watermark on the acks ring never rolls the recorder's view backwards:
// acks are cumulative, and reordering relative to the receipt-observation
// path must be harmless.
func TestAckLoopIgnoresStaleWatermark(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchTuples = 1
	s, _, acks, rec := newRecorderHarness(t, cfg, 64<<10)
	var observed []uint64
	s.Spawn("fake-secondary", func(p *sim.Proc) {
		for _, v := range []uint64{5, 3, 5, 7} {
			acks.Send(p, ackMessage(msgTuple, v, 0))
			p.Sleep(time.Millisecond)
			observed = append(observed, rec.replicas[0].acked)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{5, 5, 5, 7}
	for i, w := range want {
		if i >= len(observed) || observed[i] != w {
			t.Fatalf("acked after each ack = %v, want %v (stale watermarks ignored)", observed, want)
		}
	}
}

// TestAcksRingNeverFillsUnderBacklog verifies the recorder's dedicated
// ack-consumer keeps draining a tiny acks ring faster than a backlogged
// secondary can fill it: a blocking ack sender must never stall for good.
func TestAcksRingNeverFillsUnderBacklog(t *testing.T) {
	cfg := DefaultConfig()
	s, _, acks, rec := newRecorderHarness(t, cfg, 1<<10) // ~12 ack slots
	done := false
	s.Spawn("fake-secondary", func(p *sim.Proc) {
		for i := 1; i <= 200; i++ {
			acks.Send(p, ackMessage(msgTuple, uint64(i), 0))
		}
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("ack sender blocked forever: acks ring filled up")
	}
	if got := rec.replicas[0].acked; got != 200 {
		t.Errorf("final acked watermark = %d, want 200", got)
	}
}

// TestAckedAllSelectsWithoutAllocating runs the output-commit rule over
// every live/dead/syncing mix of N = 2 and N = 3 deployments, with the
// all-backups rule and with a quorum, and compares the watermark with a
// sort-based reference (the previous implementation). The check runs on
// every output commit, so it must not allocate.
func TestAckedAllSelectsWithoutAllocating(t *testing.T) {
	reference := func(r *Recorder) uint64 {
		var marks []uint64
		for _, link := range r.replicas {
			if !link.Dead() && !link.syncing {
				marks = append(marks, link.acked)
			}
		}
		if len(marks) == 0 {
			return r.sent
		}
		k := r.cfg.CommitQuorum
		if k <= 0 || k > len(marks) {
			k = len(marks)
		}
		sort.Slice(marks, func(i, j int) bool { return marks[i] > marks[j] })
		return marks[k-1]
	}
	acked := [][]uint64{{70, 30, 50}, {30, 70, 50}, {50, 50, 10}, {10, 20, 30}, {30, 20, 10}}
	for backups := 1; backups <= 3; backups++ {
		for quorum := 0; quorum <= backups; quorum++ {
			cfg := DefaultConfig()
			cfg.CommitQuorum = quorum
			_, log, acks, rec := newRecorderHarness(t, cfg, 64<<10)
			// A dead link stays dead, so every state gets links of its own.
			relink := func(state int, marks []uint64) {
				rec.replicas = rec.replicas[:0]
				for i := 0; i < backups; i++ {
					link := &replicaLink{acks: acks, acked: marks[i], syncing: state>>(2*i)&2 != 0}
					rec.addLink(link, log)
					if state>>(2*i)&1 != 0 {
						link.Kill()
					}
				}
			}
			rec.sent = 100
			for _, marks := range acked {
				for state := 0; state < 1<<(2*backups); state++ { // 2 bits per link: dead, syncing
					relink(state, marks)
					if got, want := rec.ackedAll(), reference(rec); got != want {
						t.Fatalf("%d backups, quorum %d, acked %v, state %b: ackedAll = %d, want %d",
							backups, quorum, marks[:backups], state, got, want)
					}
				}
			}
			relink(0, acked[0])
			if n := testing.AllocsPerRun(100, func() { rec.ackedAll() }); n != 0 {
				t.Errorf("%d backups, quorum %d: ackedAll allocates %v per call, want 0", backups, quorum, n)
			}
		}
	}
}

// TestTupleMessageRoundTrips checks that a tuple survives its ring layout:
// ft_pid and op share one word, which frees a word for the sequencing key.
// It covers the largest op, an ft_pid at the packing limit and a key that
// differs from the object; the encoder panics on an ft_pid or op that does
// not fit.
func TestTupleMessageRoundTrips(t *testing.T) {
	const maxFTPid, maxOp = 1<<(64-opBits) - 1, pthread.Op(1<<opBits - 1)
	for _, tu := range []Tuple{
		{ThreadSeq: 3, GlobalSeq: 9, ObjSeq: 2, FTPid: 7, Op: maxOp, Obj: 5, Key: 5, Outcome: 1},
		{ThreadSeq: ^uint64(0), GlobalSeq: 1 << 40, FTPid: maxFTPid, Op: OpSockResult, Obj: 12, Key: uint64(OpSockResult)<<48 | 12},
		{ThreadSeq: 1, GlobalSeq: 2, ObjSeq: 3, FTPid: 4, Op: pthread.OpCondSignal, Obj: 41, Key: 40, Outcome: 4},
		{FTPid: 0, Op: pthread.OpCondBroadcast, Obj: 41, Key: 40, Outcome: 3},
	} {
		if got := tupleOf(tu.message()); !reflect.DeepEqual(got, tu) {
			t.Errorf("tupleOf(message(%v)) = %v", tu, got)
		}
	}
	for _, tu := range []Tuple{{FTPid: maxFTPid + 1, Op: pthread.OpMutexLock}, {FTPid: -1}, {Op: maxOp + 1}, {Op: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("message(%v) did not panic", tu)
				}
			}()
			tu.message()
		}()
	}
}
