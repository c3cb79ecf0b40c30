package tcprep

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

func TestResultEncoding(t *testing.T) {
	cases := []struct {
		n    int
		err  error
		want error
	}{
		{42, nil, nil},
		{0, nil, nil},
		{0, tcpstack.EOF, tcpstack.EOF},
		{0, tcpstack.ErrReset, tcpstack.ErrReset},
		{0, tcpstack.ErrClosed, tcpstack.ErrClosed},
		{0, errors.New("weird"), nil}, // mapped to a generic error
	}
	for _, c := range cases {
		v := encodeRes(c.n, c.err)
		n, err := decodeRes(v)
		if c.err == nil {
			if err != nil || n != c.n {
				t.Errorf("round trip (%d,nil) = (%d,%v)", c.n, n, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("round trip error %v lost", c.err)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("round trip %v = %v", c.err, err)
		}
	}
}

func TestLogicalConnTrim(t *testing.T) {
	tab := newConnTable()
	lc := tab.establish(ConnKey{LocalPort: 80}, 1, 1)
	trim := func(acked uint64) {
		tab.ackOut(lc, acked)
		lc.applyTrim()
	}
	lc.appendOut(make([]byte, 1000))
	trim(400)
	if lc.out.Len() != 600 || lc.outBase != 400 {
		t.Errorf("after trim(400): len=%d base=%d", lc.out.Len(), lc.outBase)
	}
	trim(300) // stale ack: no effect
	if lc.out.Len() != 600 || lc.outBase != 400 {
		t.Error("stale ack changed state")
	}
	trim(5000) // beyond buffered: clamp, and trim what is regenerated later
	if lc.out.Len() != 0 || lc.outBase != 1000 {
		t.Errorf("after over-trim: len=%d base=%d", lc.out.Len(), lc.outBase)
	}
	lc.appendOut(make([]byte, 4500))
	if lc.out.Len() != 500 || lc.outBase != 5000 {
		t.Errorf("after regenerating past the watermark: len=%d base=%d", lc.out.Len(), lc.outBase)
	}
}

func TestConnKeyString(t *testing.T) {
	k := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 5000}
	if k.String() != ":80<->client:5000" {
		t.Errorf("String = %q", k.String())
	}
}

func TestCoalesceMergesTailOnly(t *testing.T) {
	const c1, c2 = 1, 2 // sync ids of two connections
	dataIn := func(id uint64, data string) shm.Message {
		m := syncMessage(syncDataIn, dataInBytes+len(data), id, 0, 0)
		m.Data = []byte(data)
		return m
	}
	ackOut := func(id, acked uint64) shm.Message {
		return syncMessage(syncAckOut, ackOutBytes, id, acked, 0)
	}
	w := newSyncWorld(t)
	defer w.sim.Shutdown()
	p, link := w.prim, w.prim.links[0]
	// flushed publishes the buffer and reports the logical updates it stood for.
	flushed := func() uint64 {
		before := link.synced
		link.TryFlush()
		return link.synced - before
	}

	// Seed one pending data-in entry for c1.
	link.Add(dataIn(c1, "abc"))

	// Same connection, same kind: appends into the tail entry.
	if !p.coalesce(link, dataIn(c1, "def")) {
		t.Fatal("data-in for the same stream did not coalesce")
	}
	tail := link.Tail()
	if string(tail.Data) != "abcdef" {
		t.Errorf("merged data = %q, want abcdef", tail.Data)
	}
	if tail.Size != 38 || link.Len() != 1 || link.Bytes() != 38 || p.SyncCoalesced != 1 {
		t.Errorf("size=%d entries=%d bytes=%d coalesced=%d, want 38/1/38/1", tail.Size, link.Len(), link.Bytes(), p.SyncCoalesced)
	}

	// Different connection: must NOT merge (it is a different stream).
	if p.coalesce(link, dataIn(c2, "x")) {
		t.Error("data-in for another connection coalesced")
	}
	if reps := flushed(); reps != 2 {
		t.Errorf("one entry carrying a merged update stood for %d updates, want 2", reps)
	}

	// Different kind: an ack-out at the tail merges into the next data-in of
	// its connection, which carries the watermark in W[1] and grows on.
	link.Add(ackOut(c1, 10))
	if !p.coalesce(link, dataIn(c1, "ghi")) || !p.coalesce(link, dataIn(c1, "jkl")) {
		t.Fatal("data-in did not absorb the ack-out at the tail")
	}
	tail = link.Tail()
	if tail.Kind != syncDataIn || tail.W[1] != 10 || string(tail.Data) != "ghijkl" || tail.Size != dataInBytes+6 ||
		link.Len() != 1 || link.Bytes() != dataInBytes+6 {
		t.Errorf("merged entry kind %d ack %d data %q size %d, %d entries of %d bytes; want a data-in acking 10 with ghijkl, one entry of %d bytes",
			tail.Kind, tail.W[1], tail.Data, tail.Size, link.Len(), link.Bytes(), dataInBytes+6)
	}
	if p.coalesce(link, ackOut(c1, 20)) {
		t.Error("ack-out coalesced into a data-in entry, ahead of the bytes it follows")
	}
	if reps := flushed(); reps != 3 {
		t.Errorf("the data-in that absorbed an ack-out stood for %d updates, want 3", reps)
	}

	// Ack-out entries collapse to the highest watermark; stale acks are
	// absorbed without rolling it back.
	link.Add(ackOut(c1, 100))
	if !p.coalesce(link, ackOut(c1, 250)) {
		t.Fatal("higher ack-out did not coalesce")
	}
	if !p.coalesce(link, ackOut(c1, 180)) {
		t.Fatal("stale ack-out did not coalesce")
	}
	if acked := link.Tail().W[1]; acked != 250 || link.Len() != 1 {
		t.Errorf("collapsed ack watermark = %d in %d entries, want 250 in 1", acked, link.Len())
	}

	// Only the tail is eligible: a newer entry of another kind fences off
	// older ones, preserving ring order exactly.
	link.Add(syncMessage(syncPeerFin, peerFinBytes, c1, 0, 0))
	if p.coalesce(link, ackOut(c1, 300)) {
		t.Error("ack-out merged past an interleaved update, breaking order")
	}
	if reps := flushed(); reps != 4 {
		t.Errorf("reps = %d, want 4 (three acks in one entry, one fin)", reps)
	}
}

// TestPromoteCopiesLogicalBuffers: the restored connection's streams may
// not alias the logical connection's — its input tape and its output
// window — so they must not change when the backup's memory is later
// rewritten (or, for the window, recycled through the Secondary's free
// list). The test scribbles the tape's own chunk, through the view dataIn
// returns, not a gathered copy of it.
func TestPromoteCopiesLogicalBuffers(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("backup", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "backup", Params: kernel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	ring := shm.NewFabric(s, time.Microsecond).NewRing("sync", 0, 1<<20)
	sec := NewSecondary(k, ring, DefaultCosts())

	key := ConnKey{LocalPort: 80, RemoteHost: "client", RemotePort: 40000}
	in, out := []byte("unread input the client was acked for"), []byte("regenerated output the client has not acked")
	sec.apply(shm.Message{Kind: syncConnMeta, W: [7]uint64{1, 1000, 2000}, Ref: &key})
	lc := sec.table.byKey[key]
	tape := sec.table.dataIn(lc, in) // the tape's own bytes
	lc.appendOut(out)

	conns, err := sec.Promote(tcpstack.New(k, "server", tcpstack.DefaultParams()))
	if err != nil || len(conns) != 1 {
		t.Fatalf("Promote = %d conns, %v", len(conns), err)
	}
	for _, view := range [][]byte{tape, lc.out.Bytes()} {
		for i := range view {
			view[i] = 0xee
		}
	}
	lc.out.Discard(lc.out.Len())                   // the array goes back to the Secondary's free list …
	lc.out.Append(bytes.Repeat([]byte{0xdd}, 256)) // … and is rewritten by another window
	snap := conns[0].Snapshot()
	if !bytes.Equal(snap.RcvData, in) || !bytes.Equal(snap.SndData, out) {
		t.Errorf("restored connection aliases the logical buffers: rcv=%q snd=%q", snap.RcvData, snap.SndData)
	}
	if snap.SndUna != 1001 || snap.RcvNxt != 2001+uint64(len(in)) {
		t.Errorf("restored cursors SndUna=%d RcvNxt=%d", snap.SndUna, snap.RcvNxt)
	}
}

// inBytes gathers the record's whole input stream.
func inBytes(lc *LogicalConn) []byte { return lc.in.Clone(0) }
