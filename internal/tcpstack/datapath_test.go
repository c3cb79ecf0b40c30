package tcpstack

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Tests of the data path's ownership rules (DESIGN.md §20): pooled
// segments, windowed stream buffers, and the connections Restore builds.

// holdGate is the output-commit gate in miniature: every segment is held
// for a fixed time, then sent. Like the real gate it reuses its records
// and arms one event per held segment. inGate counts the data segments
// currently held per sequence number, so a test can see go-back-N submit a
// range whose earlier copy has not left the gate yet.
type holdGate struct {
	sim      *sim.Simulation
	delay    time.Duration
	free     []*heldSeg
	inGate   map[uint64]int
	overlaps int
}

type heldSeg struct {
	g   *holdGate
	seg *Segment
	ev  sim.Event
}

func (g *holdGate) Transmit(seg *Segment) {
	var h *heldSeg
	if n := len(g.free); n > 0 {
		h, g.free = g.free[n-1], g.free[:n-1]
	} else {
		h = &heldSeg{g: g}
		h.ev.Init(g.sim, h.send)
	}
	h.seg = seg
	if g.inGate != nil && len(seg.Data) > 0 {
		if g.inGate[seg.Seq] > 0 {
			g.overlaps++
		}
		g.inGate[seg.Seq]++
	}
	h.ev.Reset(g.delay)
}

func (h *heldSeg) send() {
	seg, g := h.seg, h.g
	h.seg = nil
	g.free = append(g.free, h)
	if g.inGate != nil && len(seg.Data) > 0 {
		g.inGate[seg.Seq]--
	}
	seg.Send()
}

// TestReleasedSegmentIsPoisoned pins that the poison-on-release hook is on
// in test binaries — so every byte-identity assertion in this package,
// tcprep and core doubles as a use-after-release check — and that a
// released record really is unreadable: a hook that keeps a segment past
// its return sees the scribble, not the payload.
func TestReleasedSegmentIsPoisoned(t *testing.T) {
	if !poisonReleased {
		t.Fatal("poisonReleased is off in a test binary")
	}
	p := newPair(t, 11, DefaultParams())
	var kept *Segment
	var copied []byte
	p.server.SetIngress(func(seg *Segment) bool {
		if len(seg.Data) > 0 && kept == nil {
			kept, copied = seg, append([]byte(nil), seg.Data...)
		}
		return true
	})
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		if c, err := l.Accept(tk); err == nil {
			_, _ = c.Recv(tk, 64)
		}
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		if c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80}); err == nil {
			_, _ = c.Send(tk, []byte("payload"))
		}
	})
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if string(copied) != "payload" {
		t.Fatalf("hook copied %q, want the payload", copied)
	}
	if !kept.released || kept.Src.Host != "released" || bytes.Equal(kept.Data, copied) {
		t.Errorf("segment kept past the hook still reads as live: %v data=%q", kept, kept.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing a segment twice did not panic")
		}
	}()
	kept.release()
}

// TestGoBackNWithCopiesInFlight is the scenario segment payloads must be
// immutable for: the retransmission timer is far shorter than the time a
// segment spends in the gate and on a slow, deeply queued link, so
// go-back-N rewinds and resubmits ranges whose earlier copies are still
// held in the gate or queued on the wire; acknowledgements for the first
// copy let the sender discard and reuse that part of its window while the
// second copy is still in flight. With 5% loss on top, the stream must
// arrive intact.
func TestGoBackNWithCopiesInFlight(t *testing.T) {
	params := DefaultParams()
	params.RTOMin = 2 * time.Millisecond
	params.RTOMax = 50 * time.Millisecond
	params.SendBuf, params.RecvBuf = 32<<10, 32<<10 // a rewind resends 23 segments, not 181
	p := newPairOn(t, 12, params, simnet.LinkConfig{BitsPerSec: 100e6, Latency: 100 * time.Microsecond})
	gate := &holdGate{sim: p.sim, delay: 3 * time.Millisecond, inGate: make(map[uint64]int)}
	p.server.SetEgress(gate)

	rng := p.sim.Rand()
	var highest uint64
	duplicates := 0
	p.client.SetIngress(func(seg *Segment) bool {
		if n := uint64(len(seg.Data)); n > 0 {
			if seg.Seq+n <= highest {
				duplicates++
			} else {
				highest = seg.Seq + n
			}
		}
		return rng.Intn(20) != 0
	})

	payload := genPayload(512<<10, 17)
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		if err != nil {
			return
		}
		_, _ = c.Send(tk, payload)
		_ = c.Close(tk)
	})
	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			data, err := c.Recv(tk, 32<<10)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	if gate.overlaps == 0 || duplicates == 0 {
		t.Errorf("scenario not reached: %d ranges resubmitted while a copy was in the gate, %d duplicate ranges reached the client",
			gate.overlaps, duplicates)
	}
}

// establishedPair returns a pair with one established connection, and the
// snapshot of its server end taken after the client wrote sent (which the
// server acknowledged and its application did not read).
func establishedPair(t *testing.T, seed int64, sent []byte) (*pair, *Conn, ConnSnapshot) {
	t.Helper()
	p := newPair(t, seed, DefaultParams())
	l, _ := p.server.Listen(80, 4)
	var server, client *Conn
	p.serverK.Spawn("server", func(tk *kernel.Task) { server, _ = l.Accept(tk) })
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		client = c
		if _, err := c.Send(tk, sent); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if server == nil || client == nil || client.BufferedOut() != 0 {
		t.Fatal("no established, quiescent connection to snapshot")
	}
	snap := server.Snapshot()
	// The old server dies; nothing of it reaches the wire any more.
	p.serverK.Panic("injected failure", nil)
	p.server.nic = nil
	server.Abort()
	return p, client, snap
}

// TestSendAfterOverfullRestore: a backup's regenerated-output buffer is
// trimmed by synced acks, so at promotion it can hold more than SendBuf.
// The restored connection is over-full, not broken: a Send blocks until
// the excess has drained, then is accepted. (At the parent commit the Send
// computed a negative room and panicked slicing with it.)
func TestSendAfterOverfullRestore(t *testing.T) {
	p, client, snap := establishedPair(t, 13, nil)
	params := DefaultParams()
	held := genPayload(params.SendBuf+1000, 21)
	more := genPayload(4<<10, 22)
	snap.SndData = append([]byte(nil), held...)

	stack := New(p.clientK, "server", params)
	stack.Attach(p.serverNIC)
	c, err := stack.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.SndData { // Restore copied
		snap.SndData[i] = 0xee
	}
	if c.PollWritable() {
		t.Error("over-full connection polls writable")
	}
	c.Kick()
	var roomAtAccept int
	p.clientK.Spawn("server2", func(tk *kernel.Task) {
		if _, err := c.Send(tk, more); err != nil {
			t.Errorf("Send on the over-full connection: %v", err)
		}
		roomAtAccept = params.SendBuf - c.BufferedOut()
	})
	var got []byte
	p.clientK.Spawn("reader", func(tk *kernel.Task) {
		for len(got) < len(held)+len(more) {
			data, err := client.Recv(tk, 64<<10)
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
	})
	if err := p.sim.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(held, more...)) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(held)+len(more))
	}
	if roomAtAccept < 0 {
		t.Errorf("Send was accepted with the buffer still %d bytes over SendBuf", -roomAtAccept)
	}
	if c.BufferedOut() != 0 || !c.PollWritable() {
		t.Errorf("drained connection: %d bytes buffered, writable=%v", c.BufferedOut(), c.PollWritable())
	}
}

// TestReceiveAfterOverfullRestore is the receive-side twin: the restored
// connection holds more unread input than its stack's RecvBuf. It
// advertises a zero window — never a negative one — takes no more input
// until the application has drained the excess, then carries on.
func TestReceiveAfterOverfullRestore(t *testing.T) {
	first := genPayload(20<<10, 23)
	second := genPayload(30<<10, 24)
	p, client, snap := establishedPair(t, 14, first)
	if !bytes.Equal(snap.RcvData, first) {
		t.Fatalf("snapshot holds %d unread bytes, want %d", len(snap.RcvData), len(first))
	}

	params := DefaultParams()
	params.RecvBuf = 8 << 10 // the new stack's buffers are smaller than what it inherits
	stack := New(p.clientK, "server", params)
	stack.Attach(p.serverNIC)
	windows := map[bool]int{} // advertised windows seen by the client: negative? positive?
	p.client.SetIngress(func(seg *Segment) bool {
		windows[seg.Window < 0]++
		return true
	})
	c, err := stack.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.RcvData { // Restore copied
		snap.RcvData[i] = 0xee
	}
	c.Kick()
	p.clientK.Spawn("writer", func(tk *kernel.Task) {
		if _, err := client.Send(tk, second); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	var got []byte
	var overfullAt50ms int
	p.clientK.Spawn("server2", func(tk *kernel.Task) {
		tk.Sleep(50 * time.Millisecond) // let the writer push against the closed window first
		overfullAt50ms = c.BufferedIn()
		for len(got) < len(first)+len(second) {
			data, err := c.Recv(tk, 4<<10)
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
	})
	if err := p.sim.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if overfullAt50ms != len(first) {
		t.Errorf("over-full connection accepted input: %d bytes buffered, want the restored %d", overfullAt50ms, len(first))
	}
	if !bytes.Equal(got, append(first, second...)) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(first)+len(second))
	}
	if windows[true] > 0 || windows[false] == 0 {
		t.Errorf("advertised windows: %d negative, %d non-negative", windows[true], windows[false])
	}
}

// driven is an established connection whose server end writes one chunk
// each time step is called; step returns once the client has read it and
// the simulation is quiescent again.
type driven struct {
	p        *pair
	kick     sim.WaitQueue
	chunk    []byte
	received int
}

func newDriven(t testing.TB, params Params, chunk int, gate EgressGate) *driven {
	t.Helper()
	d := &driven{p: newPair(t, 15, params), chunk: genPayload(chunk, 31)}
	if g, ok := gate.(*holdGate); ok {
		g.sim = d.p.sim
		d.p.server.SetEgress(g)
	}
	l, _ := d.p.server.Listen(80, 4)
	d.p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		for err == nil {
			d.kick.Wait(tk.Proc())
			_, err = c.Send(tk, d.chunk)
		}
	})
	d.p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := d.p.client.Connect(tk, Addr{Host: "server", Port: 80})
		for err == nil {
			var data []byte
			data, err = c.Recv(tk, 64<<10)
			d.received += len(data)
		}
	})
	if err := d.p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *driven) step(t testing.TB) {
	want := d.received + len(d.chunk)
	d.kick.WakeAll(0)
	if err := d.p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if d.received != want {
		t.Fatalf("client has %d bytes after the step, want %d", d.received, want)
	}
}

// TestEstablishedTransferAllocs pins the steady state: on an established
// connection with warm free lists, sending and receiving one more
// MSS-sized write allocates nothing — no segment, no payload, no event, no
// closure, no buffer growth, and no copy-out (Recv lends its bytes) —
// through a direct gate and through one that holds every segment, at the
// default MSS and at stream-failover's 32 KiB.
func TestEstablishedTransferAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mss  int
		gate EgressGate
	}{
		{"direct", 1448, DirectGate{}},
		{"held", 1448, &holdGate{delay: 50 * time.Microsecond}},
		{"mss32k", 32 << 10, DirectGate{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.MSS = tc.mss
			d := newDriven(t, params, params.MSS, tc.gate)
			for i := 0; i < 64; i++ {
				d.step(t)
			}
			if n := testing.AllocsPerRun(200, func() { d.step(t) }); n != 0 {
				t.Errorf("one more MSS-sized write on a warm connection: %v allocs, want 0", n)
			}
		})
	}
}

// TestShortConnectionAllocs pins web-short's shape — connect, a 10 KiB
// response, close on both sides, TIME_WAIT — at 27 allocations: what its
// two fresh Conns, their timers and the client task cost. The receive-out
// buffers are not in the count: Close gives each back to its stack's free
// list and the next connection's first Recv takes it up again. (With a
// copy-out allocated per Recv the count was 36.)
func TestShortConnectionAllocs(t *testing.T) {
	sc := newShortConns(t)
	for i := 0; i < 8; i++ {
		sc.one(t)
	}
	if n := testing.AllocsPerRun(50, func() { sc.one(t) }); n != 27 {
		t.Errorf("one short connection on warm stacks: %v allocs, want 27", n)
	}
}

// TestRecvViewPoisonedOnReuse pins the lease on Recv's bytes: in a test
// binary the storage behind a view is scribbled when the next Recv reuses
// it and when Close gives it back, so every byte-identity assertion in this
// package, tcprep, core and the applications also catches a caller that
// keeps a Recv result past its next call on the connection.
func TestRecvViewPoisonedOnReuse(t *testing.T) {
	p := newPair(t, 17, DefaultParams())
	l, _ := p.server.Listen(80, 4)
	poison := func(n int) []byte { return bytes.Repeat([]byte{0xdb}, n) }
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c, err := l.Accept(tk)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		first, _ := c.Recv(tk, 10)
		if string(first) != "0123456789" {
			t.Errorf("first Recv = %q", first)
			return
		}
		second, _ := c.Recv(tk, 4)
		if string(second) != "abcd" {
			t.Errorf("second Recv = %q", second)
		}
		if !bytes.Equal(first, append([]byte("abcd"), poison(6)...)) {
			t.Errorf("first view after the next Recv reads %q, want the second's bytes, then the scribble", first)
		}
		_ = c.Close(tk)
		if !bytes.Equal(second, poison(4)) {
			t.Errorf("second view after Close reads %q, want the scribble", second)
		}
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		if c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80}); err == nil {
			_, _ = c.Send(tk, []byte("0123456789abcdef"))
		}
	})
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}
