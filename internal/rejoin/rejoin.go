// Package rejoin implements backup re-integration after a failure (§3.7):
// a checkpoint of the replicated state — FT-namespace cursors (environment
// mirror, ft_pid assignment, per-thread Seq_thread, per-object Seq_obj and
// the Seq_global watermark), application snapshots, send cursors and the
// logical TCP connection history — is streamed to a freshly booted backup
// kernel over a dedicated shared-memory bulk ring. The backup seeds itself
// from the checkpoint and replays the deterministic-section log retained
// after it as catch-up while the primary keeps recording. Every replica
// boots holding the genesis checkpoint (epoch 0, nothing recorded), so
// "no epoch cut yet" is the same path with the whole history as its delta.
// A transfer is digest-verified on reassembly, and the catch-up replay is
// checked against the recording side's cursors at the attach frontier —
// any divergence surfaces as ErrChecksumMismatch instead of silently
// re-entering replicated mode with skewed state.
package rejoin

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// ErrChecksumMismatch reports that a transferred or replay-reconstructed
// checkpoint does not match the recording side's cut.
var ErrChecksumMismatch = errors.New("rejoin: checkpoint checksum mismatch")

// ErrTruncatedCheckpoint reports a bulk transfer that stopped mid-stream:
// the sender died (or its kernel was torn down) between frames, leaving a
// partial checkpoint on a ring nobody will ever finish. Recv fails fast
// with this instead of blocking forever.
var ErrTruncatedCheckpoint = errors.New("rejoin: truncated checkpoint transfer")

// recvFrameTimeout bounds how long Recv waits for the next bulk frame
// before declaring the transfer truncated. Virtual time, and generous:
// a healthy sender streams the whole checkpoint in well under a second
// of virtual clock, so only a dead sender can exhaust it. (Satisfied
// waits cancel their timer without observable residue, so the timeout
// does not perturb same-seed traces.)
const recvFrameTimeout = 30 * time.Second

// EnvEntry is one environment binding, in sorted-key order so the
// checkpoint content is deterministic.
type EnvEntry struct {
	Key, Value string
}

// AppSnap is one application's opaque state snapshot inside a checkpoint.
// The replication layer never interprets Data; the owning application's
// Restore hook does.
type AppSnap struct {
	Name string
	Data []byte
}

// Checkpoint is a consistent cut of the replicated full-software-stack
// state at a deterministic-section boundary: what a fresh backup is seeded
// from before it replays the retained log after it. Everything but TCP is
// a deterministic function of the recorded log prefix, so a backup can
// recompute the same content from its own replayed state; an epoch cut
// therefore leaves TCP empty (input bytes never enter the det log) and the
// rejoin fills it with a snapshot taken at the attach instant.
type Checkpoint struct {
	// Epoch numbers the cut within the primary's incarnation lineage;
	// epoch 0 is the genesis checkpoint every replica boots with.
	Epoch uint64
	// SeqGlobal is the cut's global sequence watermark.
	SeqGlobal uint64
	// Sent is the recording-side log watermark at the cut: the marker
	// message carrying this checkpoint occupies log index Sent, and
	// truncation on both sides keeps it as the first retained entry.
	Sent uint64
	// NextFTPid is the next replica-identity the namespace would assign.
	NextFTPid int
	// Threads holds the per-thread sequence cursors, sorted by ft_pid.
	Threads []replication.SeqCursor
	// Objs holds the per-object sequencing cursors (Seq_obj), sorted by
	// object key. With sharded det sections SeqGlobal is only a Lamport
	// watermark, so the cut's real cursor state is this vector; with one
	// shard it is still recorded and verified, keeping checkpoints
	// comparable across WithDetShards settings.
	Objs []replication.ObjCursor
	// Env is the replicated environment mirror in sorted-key order.
	Env []EnvEntry
	// Apps holds the application snapshots, in launch order.
	Apps []AppSnap
	// Sends holds every replicated connection's cumulative output-stream
	// byte count at the cut, sorted by socket ID. A seeded backup replays
	// the log from the cut, so its regenerated output resumes at these
	// offsets; seeding them as the logical out-buffer bases keeps the
	// retransmission accounting aligned (tcprep.Secondary.SeedOutBase).
	Sends []tcprep.SendCursor
	// TCP is the logical connection history the backup seeds its sync
	// state from.
	TCP tcprep.StateSnap
	// Sum is the FNV-1a digest of everything above, set by Seal: carried
	// in the epoch marker for backups to compare against their replayed
	// state, and in the transfer header for the receiver to recompute
	// after reassembly.
	Sum uint64
}

// Genesis returns the epoch-0 checkpoint of a namespace that has recorded
// nothing. Seeding from it is the identity, so a rejoin from genesis
// replays the whole retained history.
func Genesis() *Checkpoint {
	cp := &Checkpoint{NextFTPid: 1}
	cp.Seal()
	return cp
}

// A Cutter cuts checkpoints into buffers it owns: each of its cuts writes
// the cursor vectors, the environment and the app and send lists over the
// last one's, so a cut that is sized or digested and then dropped — a
// pre-copy pass measuring the namespace, a backup verifying an epoch
// marker — allocates nothing once the buffers have grown. A buffer is
// reused only by the cutter's next cut, so a checkpoint that is retained
// comes from Cut, whose cutter is its own.
type Cutter struct{ cp Checkpoint }

// Cut captures the namespace's cursor and environment state over the
// cutter's last cut and returns it; it is valid until the cutter's next
// Cut. It must run with the namespace at a section boundary and without
// yielding; the caller fills in whatever else the cut carries (appending
// to Apps and Sends, which start empty) and Seals it.
func (c *Cutter) Cut(ns *replication.Namespace) *Checkpoint {
	cp := &c.cp
	seqGlobal, threads := ns.Cursors(cp.Threads)
	*cp = Checkpoint{
		SeqGlobal: seqGlobal,
		NextFTPid: ns.NextFTPid(),
		Threads:   threads,
		Objs:      ns.ObjCursors(cp.Objs),
		Env:       sortedEnv(ns.Env(), cp.Env),
		Apps:      cp.Apps[:0],
		Sends:     cp.Sends[:0],
	}
	return cp
}

// Cut is Cutter.Cut with a cutter of its own: the checkpoint owns its
// buffers, and the caller may retain it.
func Cut(ns *replication.Namespace) *Checkpoint { return new(Cutter).Cut(ns) }

// sortedEnv writes m's bindings over env's array in key order.
func sortedEnv(m map[string]string, env []EnvEntry) []EnvEntry {
	env = env[:0]
	for k, v := range m { // ftvet:nondet collect-then-sort
		env = append(env, EnvEntry{Key: k, Value: v})
	}
	slices.SortFunc(env, func(a, b EnvEntry) int { return strings.Compare(a.Key, b.Key) })
	return env
}

// Seal computes the digest once the checkpoint's fields are final.
func (cp *Checkpoint) Seal() { cp.Sum = cp.digest() }

// digest is the FNV-1a checksum over the checkpoint's logical content:
// "e<epoch>|s<Seq_global>|w<sent>|p<next ft_pid>", then one record per
// thread, object, env binding, app, send cursor, connection and binding,
// numbers in decimal. Each record is formatted into a buffer on the stack
// and hashed, so digesting allocates nothing.
func (cp *Checkpoint) digest() uint64 {
	h := fnv.New64a()
	var arr [128]byte
	b := append(arr[:0], 'e')
	b = strconv.AppendUint(b, cp.Epoch, 10)
	b = strconv.AppendUint(append(b, "|s"...), cp.SeqGlobal, 10)
	b = strconv.AppendUint(append(b, "|w"...), cp.Sent, 10)
	b = strconv.AppendInt(append(b, "|p"...), int64(cp.NextFTPid), 10)
	h.Write(b)
	for _, t := range cp.Threads {
		b = strconv.AppendInt(append(arr[:0], "|t"...), int64(t.FTPid), 10)
		h.Write(strconv.AppendUint(append(b, ':'), t.Seq, 10))
	}
	for _, o := range cp.Objs {
		b = strconv.AppendUint(append(arr[:0], "|o"...), o.Obj, 10)
		h.Write(strconv.AppendUint(append(b, ':'), o.Seq, 10))
	}
	for _, e := range cp.Env {
		h.Write(append(append(append(append(arr[:0], "|e"...), e.Key...), '='), e.Value...))
	}
	for _, a := range cp.Apps {
		b = append(append(arr[:0], "|a"...), a.Name...)
		h.Write(append(strconv.AppendInt(append(b, ':'), int64(len(a.Data)), 10), ':'))
		h.Write(a.Data)
	}
	for _, c := range cp.Sends {
		b = strconv.AppendUint(append(arr[:0], "|u"...), c.ID, 10)
		h.Write(strconv.AppendUint(append(b, ':'), c.Sent, 10))
	}
	for _, c := range cp.TCP.Conns {
		b = strconv.AppendInt(append(arr[:0], "|c"...), int64(c.Key.LocalPort), 10)
		b = strconv.AppendInt(append(append(append(b, '/'), c.Key.RemoteHost...), ':'), int64(c.Key.RemotePort), 10)
		b = strconv.AppendUint(append(b, " y"...), c.Sync, 10)
		b = strconv.AppendUint(append(b, " i"...), c.ISS, 10)
		b = strconv.AppendUint(append(b, " r"...), c.IRS, 10)
		b = strconv.AppendUint(append(b, " a"...), c.Acked, 10)
		b = strconv.AppendBool(append(b, " f"...), c.PeerFin)
		h.Write(append(strconv.AppendBool(append(b, " g"...), c.Gone), ' '))
		h.Write(c.In)
		h.Write(c.Out)
	}
	for _, bs := range cp.TCP.Binds {
		b = strconv.AppendUint(append(arr[:0], "|b"...), bs.ID, 10)
		h.Write(strconv.AppendInt(append(b, '>'), int64(bs.Conn), 10))
	}
	return h.Sum64()
}

// Bytes is the checkpoint's accounted bulk-transfer footprint.
func (cp *Checkpoint) Bytes() int {
	n := 64 + 16*len(cp.Threads) + 16*len(cp.Objs) + 16*len(cp.Sends)
	for _, e := range cp.Env {
		n += 16 + len(e.Key) + len(e.Value)
	}
	for _, a := range cp.Apps {
		n += 16 + len(a.Name) + len(a.Data)
	}
	return n + cp.TCP.Bytes()
}

// VerifyReplay checks a rejoined backup's replay-reconstructed namespace
// against a cut of the recording side's cursors. Arm it at the cut's
// watermark — via ns.OnReplayHead(cp.SeqGlobal, ...) — so the comparison
// happens exactly at the cut boundary.
func (cp *Checkpoint) VerifyReplay(ns *replication.Namespace) error {
	got := Cut(ns)
	if got.SeqGlobal != cp.SeqGlobal {
		return fmt.Errorf("%w: Seq_global %d, checkpoint %d",
			ErrChecksumMismatch, got.SeqGlobal, cp.SeqGlobal)
	}
	if got.NextFTPid != cp.NextFTPid {
		return fmt.Errorf("%w: next ft_pid %d, checkpoint %d",
			ErrChecksumMismatch, got.NextFTPid, cp.NextFTPid)
	}
	if len(got.Threads) != len(cp.Threads) {
		return fmt.Errorf("%w: %d thread cursors, checkpoint %d",
			ErrChecksumMismatch, len(got.Threads), len(cp.Threads))
	}
	for i, t := range got.Threads {
		if t != cp.Threads[i] {
			return fmt.Errorf("%w: ft_pid %d at Seq_thread %d, checkpoint <%d,%d>",
				ErrChecksumMismatch, t.FTPid, t.Seq, cp.Threads[i].FTPid, cp.Threads[i].Seq)
		}
	}
	if len(got.Objs) != len(cp.Objs) {
		return fmt.Errorf("%w: %d object cursors, checkpoint %d",
			ErrChecksumMismatch, len(got.Objs), len(cp.Objs))
	}
	for i, o := range got.Objs {
		if o != cp.Objs[i] {
			return fmt.Errorf("%w: object %d at Seq_obj %d, checkpoint <%d,%d>",
				ErrChecksumMismatch, o.Obj, o.Seq, cp.Objs[i].Obj, cp.Objs[i].Seq)
		}
	}
	if len(got.Env) != len(cp.Env) {
		return fmt.Errorf("%w: %d env entries, checkpoint %d",
			ErrChecksumMismatch, len(got.Env), len(cp.Env))
	}
	for i, e := range got.Env {
		if e != cp.Env[i] {
			return fmt.Errorf("%w: env %s=%q, checkpoint %s=%q",
				ErrChecksumMismatch, e.Key, e.Value, cp.Env[i].Key, cp.Env[i].Value)
		}
	}
	return nil
}

// Bulk-ring message kinds. The ring is dedicated to one transfer, FIFO and
// reliable (fault injection never targets bulk rings), so the protocol is
// a plain framed stream: header, epoch header, per-application meta plus
// snapshot chunks, cursor tables, per-connection meta plus input-stream
// chunks, bindings, done.
const (
	bulkHeader = iota + 1
	bulkThreads
	bulkEnv
	bulkConn
	bulkChunk
	bulkBinds
	bulkDone
	bulkObjs
	bulkEpoch
	bulkApp
	bulkAppChunk
)

// chunkBytes bounds one bulk-ring transfer so the checkpoint streams
// through a ring smaller than itself instead of requiring it to fit.
const chunkBytes = 64 << 10

// Every bulk frame is cold — a transfer happens once per rejoin — so its
// content rides the message's reference slot as a pointer, to one of these
// records or to one of the checkpoint's tables (storing a pointer in an
// interface does not allocate a box), with chunk bytes in the byte view.

type bulkHdr struct {
	SeqGlobal uint64
	NextFTPid int
	Conns     int
	Sum       uint64
}

type bulkEpochHdr struct {
	Epoch uint64
	Sent  uint64
	Apps  int
	Sends []tcprep.SendCursor
}

type bulkAppMeta struct {
	Name string
	Len  int
}

type bulkConnMeta struct {
	Snap  tcprep.ConnSnap // In nil; streamed separately in chunks
	InLen int
}

// sendChunks streams data as kind frames of at most chunkBytes each: a
// chunk of an application snapshot (bulkAppChunk) or of a connection's
// input stream (bulkChunk). Word 0 indexes the checkpoint's app or
// connection order.
func sendChunks(p *sim.Proc, ring *shm.Ring, kind, of int, data []byte) {
	for off := 0; off < len(data); off += chunkBytes {
		end := off + chunkBytes
		if end > len(data) {
			end = len(data)
		}
		ring.Send(p, shm.Message{Kind: kind, Size: 16 + end - off,
			W: [7]uint64{uint64(of)}, Data: data[off:end]})
	}
}

// Send streams the checkpoint over the bulk ring, blocking as the ring
// fills. Run it on a dedicated task of the recording side's kernel; the
// checkpoint was already cut, so recording continues concurrently.
func Send(t *kernel.Task, ring *shm.Ring, cp *Checkpoint) {
	p := t.Proc()
	ring.Send(p, shm.Message{Kind: bulkHeader, Size: 64, Ref: &bulkHdr{
		SeqGlobal: cp.SeqGlobal,
		NextFTPid: cp.NextFTPid,
		Conns:     len(cp.TCP.Conns),
		Sum:       cp.Sum,
	}})
	ring.Send(p, shm.Message{Kind: bulkEpoch, Size: 48 + 16*len(cp.Sends), Ref: &bulkEpochHdr{
		Epoch: cp.Epoch,
		Sent:  cp.Sent,
		Apps:  len(cp.Apps),
		Sends: cp.Sends,
	}})
	for i, a := range cp.Apps {
		ring.Send(p, shm.Message{Kind: bulkApp, Size: 32 + len(a.Name),
			Ref: &bulkAppMeta{Name: a.Name, Len: len(a.Data)}})
		sendChunks(p, ring, bulkAppChunk, i, a.Data)
	}
	ring.Send(p, shm.Message{Kind: bulkThreads, Size: 16 + 16*len(cp.Threads), Ref: &cp.Threads})
	ring.Send(p, shm.Message{Kind: bulkObjs, Size: 16 + 16*len(cp.Objs), Ref: &cp.Objs})
	envSize := 16
	for _, e := range cp.Env {
		envSize += 16 + len(e.Key) + len(e.Value)
	}
	ring.Send(p, shm.Message{Kind: bulkEnv, Size: envSize, Ref: &cp.Env})
	for i, cs := range cp.TCP.Conns {
		meta := cs
		meta.In = nil
		ring.Send(p, shm.Message{Kind: bulkConn, Size: 64 + len(cs.Out), Ref: &bulkConnMeta{Snap: meta, InLen: len(cs.In)}})
		sendChunks(p, ring, bulkChunk, i, cs.In)
	}
	ring.Send(p, shm.Message{Kind: bulkBinds, Size: 16 + 24*len(cp.TCP.Binds), Ref: &cp.TCP.Binds})
	ring.Send(p, shm.Message{Kind: bulkDone, Size: 16})
}

// Recv reassembles a checkpoint from the bulk ring, blocking until the
// terminating frame arrives, and re-verifies the digest over the
// reassembled content. A sender that dies mid-stream surfaces as
// ErrTruncatedCheckpoint after recvFrameTimeout of ring silence rather
// than blocking forever.
func Recv(t *kernel.Task, ring *shm.Ring) (*Checkpoint, error) {
	p := t.Proc()
	cp := &Checkpoint{}
	var want uint64
	sawEpoch := false
	frames := 0
	for {
		m, ok := ring.RecvTimeout(p, recvFrameTimeout)
		if !ok {
			return nil, fmt.Errorf("%w: ring silent for %v after %d frames",
				ErrTruncatedCheckpoint, recvFrameTimeout, frames)
		}
		frames++
		switch m.Kind {
		case bulkHeader:
			h := m.Ref.(*bulkHdr)
			cp.SeqGlobal = h.SeqGlobal
			cp.NextFTPid = h.NextFTPid
			cp.TCP.Conns = make([]tcprep.ConnSnap, 0, h.Conns)
			want = h.Sum
		case bulkEpoch:
			h := m.Ref.(*bulkEpochHdr)
			cp.Epoch = h.Epoch
			cp.Sent = h.Sent
			cp.Sends = append([]tcprep.SendCursor(nil), h.Sends...)
			cp.Apps = make([]AppSnap, 0, h.Apps)
			sawEpoch = true
		case bulkApp:
			meta := m.Ref.(*bulkAppMeta)
			cp.Apps = append(cp.Apps, AppSnap{Name: meta.Name, Data: make([]byte, 0, meta.Len)})
		case bulkAppChunk:
			of := int(m.W[0])
			if of >= len(cp.Apps) {
				return nil, fmt.Errorf("%w: chunk for app snapshot %d of %d",
					ErrChecksumMismatch, of, len(cp.Apps))
			}
			a := &cp.Apps[of]
			a.Data = append(a.Data, m.Data...)
		case bulkThreads:
			cp.Threads = *m.Ref.(*[]replication.SeqCursor)
		case bulkObjs:
			cp.Objs = *m.Ref.(*[]replication.ObjCursor)
		case bulkEnv:
			cp.Env = *m.Ref.(*[]EnvEntry)
		case bulkConn:
			meta := m.Ref.(*bulkConnMeta)
			cs := meta.Snap
			cs.In = make([]byte, 0, meta.InLen)
			cp.TCP.Conns = append(cp.TCP.Conns, cs)
		case bulkChunk:
			of := int(m.W[0])
			if of >= len(cp.TCP.Conns) {
				return nil, fmt.Errorf("%w: chunk for connection %d of %d",
					ErrChecksumMismatch, of, len(cp.TCP.Conns))
			}
			cs := &cp.TCP.Conns[of]
			cs.In = append(cs.In, m.Data...)
		case bulkBinds:
			cp.TCP.Binds = *m.Ref.(*[]tcprep.BindSnap)
		case bulkDone:
			if !sawEpoch {
				return nil, fmt.Errorf("%w: transfer carried no epoch frame", ErrChecksumMismatch)
			}
			cp.Seal()
			if cp.Sum != want {
				return nil, fmt.Errorf("%w: reassembled digest %#x, header %#x",
					ErrChecksumMismatch, cp.Sum, want)
			}
			return cp, nil
		default:
			return nil, fmt.Errorf("%w: unknown bulk frame kind %d", ErrChecksumMismatch, m.Kind)
		}
	}
}
