package rejoin

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// bulkPair boots two kernels on opposite partitions with a bulk ring
// deliberately smaller than the checkpoints under test, so the transfer
// must stream through it rather than fit at once.
func bulkPair(t *testing.T) (*sim.Simulation, *kernel.Kernel, *kernel.Kernel, *shm.Ring) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	pp, _ := m.NewPartition("p", 0, 1, 2, 3)
	sp, _ := m.NewPartition("s", 4, 5, 6, 7)
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	bk, err := kernel.Boot(sp, kernel.Config{Name: "backup", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	return s, pk, bk, fabric.NewRing("rejoin.bulk", 0, 96<<10)
}

func testCheckpoint() *Checkpoint {
	in := make([]byte, 150<<10) // three chunks, larger than the 96 KiB ring
	for i := range in {
		in[i] = byte(i * 7)
	}
	snap := make([]byte, 150<<10)
	for i := range snap {
		snap[i] = byte(i*13 + 5)
	}
	cp := &Checkpoint{
		Epoch:     9,
		SeqGlobal: 12345,
		Sent:      777,
		NextFTPid: 7,
		Threads: []replication.SeqCursor{
			{FTPid: 1, Seq: 4000}, {FTPid: 2, Seq: 8345},
		},
		Objs: []replication.ObjCursor{
			{Obj: 1, Seq: 7000}, {Obj: 2, Seq: 5345},
		},
		Env: []EnvEntry{{Key: "FT_MODE", Value: "replicated"}, {Key: "HOME", Value: "/"}},
		Apps: []AppSnap{
			{Name: "counter", Data: []byte{1, 2, 3, 4}},
			{Name: "stream", Data: snap},
		},
		Sends: []tcprep.SendCursor{{ID: 3, Sent: 1 << 20}},
		TCP: tcprep.StateSnap{
			Conns: []tcprep.ConnSnap{{
				Key:   tcprep.ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 9999},
				ISS:   1000,
				IRS:   2000,
				In:    in,
				Acked: 4096,
			}},
			Binds: []tcprep.BindSnap{{ID: 3, Conn: 0}},
		},
	}
	cp.Seal()
	return cp
}

// transfer runs send on the primary kernel against Recv on the backup and
// returns what Recv returned.
func transfer(t *testing.T, send func(*kernel.Task, *shm.Ring)) (*Checkpoint, error) {
	t.Helper()
	s, pk, bk, ring := bulkPair(t)
	var got *Checkpoint
	var rerr error
	done := false
	pk.Spawn("send", func(tk *kernel.Task) { send(tk, ring) })
	bk.Spawn("recv", func(tk *kernel.Task) { got, rerr = Recv(tk, ring); done = true })
	if err := s.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("Recv still blocked after 2s")
	}
	return got, rerr
}

func sendAll(cp *Checkpoint) func(*kernel.Task, *shm.Ring) {
	return func(tk *kernel.Task, ring *shm.Ring) { Send(tk, ring, cp) }
}

func TestBulkTransferRoundTrip(t *testing.T) {
	cp := testCheckpoint()
	got, err := transfer(t, sendAll(cp))
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.SeqGlobal != cp.SeqGlobal || got.NextFTPid != cp.NextFTPid || got.Sum != cp.Sum {
		t.Errorf("header fields differ: got %+v", got)
	}
	if len(got.Threads) != 2 || got.Threads[1] != cp.Threads[1] {
		t.Errorf("thread cursors differ: %+v", got.Threads)
	}
	if len(got.Objs) != 2 || got.Objs[0] != cp.Objs[0] || got.Objs[1] != cp.Objs[1] {
		t.Errorf("object cursors differ: %+v", got.Objs)
	}
	if len(got.Env) != 2 || got.Env[0] != cp.Env[0] {
		t.Errorf("env differs: %+v", got.Env)
	}
	if len(got.TCP.Conns) != 1 || !bytes.Equal(got.TCP.Conns[0].In, cp.TCP.Conns[0].In) {
		t.Error("connection input stream not reassembled byte-identically")
	}
	if len(got.TCP.Binds) != 1 || got.TCP.Binds[0] != cp.TCP.Binds[0] {
		t.Errorf("binds differ: %+v", got.TCP.Binds)
	}
}

// TestEpochTransferRoundTrip covers the epoch frame and the chunked
// application snapshots of the same transfer.
func TestEpochTransferRoundTrip(t *testing.T) {
	cp := testCheckpoint()
	got, err := transfer(t, sendAll(cp))
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Epoch != cp.Epoch || got.Sent != cp.Sent {
		t.Errorf("epoch header differs: epoch=%d sent=%d", got.Epoch, got.Sent)
	}
	if len(got.Sends) != 1 || got.Sends[0] != cp.Sends[0] {
		t.Errorf("send cursors differ: %+v", got.Sends)
	}
	if len(got.Apps) != 2 || got.Apps[0].Name != "counter" || got.Apps[1].Name != "stream" {
		t.Fatalf("apps differ: %+v", got.Apps)
	}
	if !bytes.Equal(got.Apps[1].Data, cp.Apps[1].Data) {
		t.Error("chunked app snapshot not reassembled byte-identically")
	}
}

// TestGenesisTransferRoundTrip sends the checkpoint every epochs-off rejoin
// seeds from: all-zero cursors, no apps, and still one epoch frame.
func TestGenesisTransferRoundTrip(t *testing.T) {
	cp := Genesis()
	got, err := transfer(t, sendAll(cp))
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Sum != cp.Sum || got.Epoch != 0 || got.SeqGlobal != 0 || got.Sent != 0 || got.NextFTPid != 1 {
		t.Errorf("genesis changed in transfer: %+v", got)
	}
	if n := len(got.Threads) + len(got.Objs) + len(got.Env) + len(got.Apps) + len(got.Sends) + len(got.TCP.Conns); n != 0 {
		t.Errorf("genesis carries %d entries, want none: %+v", n, got)
	}
}

func TestBulkTransferDetectsCorruption(t *testing.T) {
	cp := testCheckpoint()
	cp.Sum++ // simulate content skew between cut and transfer
	if _, err := transfer(t, sendAll(cp)); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("Recv = %v, want ErrChecksumMismatch", err)
	}
}

// TestBulkTransferDetectsCursorCorruption corrupts one per-object cursor
// AFTER the digest was computed — the skew a buggy sharded cut would
// produce — and requires the reassembly digest check to reject it.
func TestBulkTransferDetectsCursorCorruption(t *testing.T) {
	cp := testCheckpoint()
	cp.Objs[1].Seq += 3 // post-digest corruption of a Seq_obj cursor
	if _, err := transfer(t, sendAll(cp)); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("Recv = %v, want ErrChecksumMismatch", err)
	}
}

func TestEpochTransferDetectsAppCorruption(t *testing.T) {
	cp := testCheckpoint()
	cp.Apps[1].Data[99] ^= 0xff // post-Seal corruption of an app snapshot
	if _, err := transfer(t, sendAll(cp)); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("Recv = %v, want ErrChecksumMismatch", err)
	}
}

func TestDigestCoversContent(t *testing.T) {
	base := testCheckpoint()
	mutations := map[string]func(*Checkpoint){
		"epoch":   func(c *Checkpoint) { c.Epoch++ },
		"seq":     func(c *Checkpoint) { c.SeqGlobal++ },
		"sent":    func(c *Checkpoint) { c.Sent++ },
		"ftpid":   func(c *Checkpoint) { c.NextFTPid++ },
		"cursor":  func(c *Checkpoint) { c.Threads[0].Seq++ },
		"objs":    func(c *Checkpoint) { c.Objs[1].Seq++ },
		"env":     func(c *Checkpoint) { c.Env[0].Value = "degraded" },
		"app":     func(c *Checkpoint) { c.Apps[0].Data[0]++ },
		"appname": func(c *Checkpoint) { c.Apps[0].Name = "other" },
		"sends":   func(c *Checkpoint) { c.Sends[0].Sent++ },
		"input":   func(c *Checkpoint) { c.TCP.Conns[0].In[0]++ },
		"acked":   func(c *Checkpoint) { c.TCP.Conns[0].Acked++ },
		"bind":    func(c *Checkpoint) { c.TCP.Binds[0].ID++ },
	}
	for name, mutate := range mutations {
		cp := testCheckpoint()
		mutate(cp)
		if cp.digest() == base.Sum {
			t.Errorf("digest blind to %s mutation", name)
		}
	}
}

// shortTimeout shrinks RecvFrameTimeout for tests of a sender that stops.
func shortTimeout(t *testing.T) {
	old := RecvFrameTimeout
	RecvFrameTimeout = 100 * time.Millisecond
	t.Cleanup(func() { RecvFrameTimeout = old })
}

// TestRecvFailsFastOnTruncatedTransfer kills the transfer after the first
// frames: the receiver must fail with ErrTruncatedCheckpoint once the ring
// goes silent instead of blocking forever on a stream nobody will finish.
func TestRecvFailsFastOnTruncatedTransfer(t *testing.T) {
	shortTimeout(t)
	cp := testCheckpoint()
	_, err := transfer(t, func(tk *kernel.Task, ring *shm.Ring) {
		p := tk.Proc()
		ring.Send(p, shm.Message{Kind: bulkHeader, Size: 64, Ref: &bulkHdr{Sum: cp.Sum}})
		ring.Send(p, shm.Message{Kind: bulkThreads, Size: 16, Ref: &cp.Threads})
		// Sender dies here: no more frames, no bulkDone.
	})
	if !errors.Is(err, ErrTruncatedCheckpoint) {
		t.Fatalf("Recv = %v, want ErrTruncatedCheckpoint", err)
	}
}

// TestRecvEpochFailsFastMidAppChunks: the sender dies between application
// snapshot chunks.
func TestRecvEpochFailsFastMidAppChunks(t *testing.T) {
	shortTimeout(t)
	cp := testCheckpoint()
	_, err := transfer(t, func(tk *kernel.Task, ring *shm.Ring) {
		p := tk.Proc()
		ring.Send(p, shm.Message{Kind: bulkHeader, Size: 64, Ref: &bulkHdr{Sum: cp.Sum}})
		ring.Send(p, shm.Message{Kind: bulkEpoch, Size: 48, Ref: &bulkEpochHdr{
			Epoch: cp.Epoch, Sent: cp.Sent, Apps: len(cp.Apps),
		}})
		ring.Send(p, shm.Message{Kind: bulkApp, Size: 32,
			Ref: &bulkAppMeta{Name: "stream", Len: len(cp.Apps[1].Data)}})
		ring.Send(p, shm.Message{Kind: bulkAppChunk, Size: 16 + chunkBytes,
			W: [7]uint64{0}, Data: cp.Apps[1].Data[:chunkBytes]})
		// Sender dies mid-snapshot.
	})
	if !errors.Is(err, ErrTruncatedCheckpoint) {
		t.Fatalf("Recv = %v, want ErrTruncatedCheckpoint", err)
	}
}

// TestRecvRejectsMalformedStream feeds Recv frame sequences no Send
// produces; each must fail with ErrChecksumMismatch, never panic or hang.
func TestRecvRejectsMalformedStream(t *testing.T) {
	done := shm.Message{Kind: bulkDone, Size: 16}
	hdr := shm.Message{Kind: bulkHeader, Size: 64, Ref: &bulkHdr{Sum: Genesis().Sum, NextFTPid: 1}}
	streams := map[string][]shm.Message{
		"no epoch frame": {hdr, done},
		"unknown kind":   {hdr, {Kind: 99, Size: 16}},
		"app chunk out of range": {hdr,
			{Kind: bulkEpoch, Size: 48, Ref: &bulkEpochHdr{}},
			{Kind: bulkAppChunk, Size: 17, W: [7]uint64{0}, Data: []byte{1}}},
		"conn chunk out of range": {hdr,
			{Kind: bulkChunk, Size: 17, W: [7]uint64{2}, Data: []byte{1}}},
	}
	for name, frames := range streams {
		t.Run(name, func(t *testing.T) {
			_, err := transfer(t, func(tk *kernel.Task, ring *shm.Ring) {
				for _, m := range frames {
					ring.Send(tk.Proc(), m)
				}
			})
			if !errors.Is(err, ErrChecksumMismatch) {
				t.Fatalf("Recv = %v, want ErrChecksumMismatch", err)
			}
		})
	}
}
