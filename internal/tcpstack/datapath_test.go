package tcpstack

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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
		h.ev.Init(g.sim.Root(), h.send)
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
		c := l.Accept(tk)
		_, _ = c.Recv(tk, 64)
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

// TestReleasedConnIsPoisoned pins the connection record's poison-on-release:
// once a connection is closed by its owner and reaped — the client's at the
// end of TIME_WAIT, the server's as its FIN is acknowledged — the record is
// on its stack's free list, scribbled, and every use of the stale *Conn
// panics instead of acting on whichever connection gets the record next.
func TestReleasedConnIsPoisoned(t *testing.T) {
	p := newPair(t, 14, DefaultParams())
	l, _ := p.server.Listen(80, 4)
	var client, server *Conn
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		server = l.Accept(tk)
		_, _ = server.Recv(tk, 64) // EOF: the client closed
		_ = server.Close(tk)
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		var err error
		if client, err = p.client.Connect(tk, Addr{Host: "server", Port: 80}); err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		_ = client.Close(tk)
	})
	if err := p.sim.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		c *Conn
		s *Stack
	}{{client, p.client}, {server, p.server}} {
		if side.c.state != stateReleased || side.c.key.remoteHost != "released" {
			t.Errorf("closed and reaped %v: state %d, want the poisoned record", side.c.key, side.c.state)
		}
		if len(side.s.connFree) != 1 || side.s.connFree[0] != side.c || side.s.Conns() != 0 {
			t.Errorf("stack holds %d conns and %d free records, want the released one alone", side.s.Conns(), len(side.s.connFree))
		}
	}
	for _, use := range []struct {
		name string
		fn   func()
	}{
		{"Send", func() { _, _ = client.Send(nil, []byte("x")) }},
		{"Recv", func() { _, _ = client.Recv(nil, 1) }},
		{"Close", func() { _ = client.Close(nil) }},
		{"Abort", client.Abort},
		{"Kick", client.Kick},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released connection did not panic", use.name)
				}
			}()
			use.fn()
		}()
	}
}

// TestConnOutlivesResetUntilClosed pins the other half of the refcount
// rule: a connection the peer resets is reaped at once, but its record
// stays its owner's until the owner closes it — Recv keeps returning the
// reset error, and a connection opened meanwhile gets a record of its own —
// and the next connection after the Close gets it.
func TestConnOutlivesResetUntilClosed(t *testing.T) {
	p := newPair(t, 15, DefaultParams())
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		l.Accept(tk).Abort()
		for {
			l.Accept(tk)
		}
	})
	var reset, opened, next *Conn
	var errs []error
	connect := func(tk *kernel.Task) *Conn {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
		}
		return c
	}
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		reset = connect(tk)
		_, err := reset.Recv(tk, 10)
		errs = append(errs, err)
		opened = connect(tk)
		_, err = reset.Recv(tk, 10)
		errs = append(errs, err)
		_ = reset.Close(tk)
		next = connect(tk)
	})
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || !errors.Is(errs[0], ErrReset) || !errors.Is(errs[1], ErrReset) {
		t.Errorf("Recv on the reset connection, before and after another connect: %v, want ErrReset twice", errs)
	}
	if opened == reset {
		t.Error("a connection opened before the reset one was closed got its record")
	}
	if next != reset {
		t.Error("the connection opened after the Close did not get the released record")
	}
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

	rng := p.sim.Root().Rand()
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
		return rng.IntN(20) != 0
	})

	payload := genPayload(512<<10, 17)
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
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
	p.serverK.Spawn("server", func(tk *kernel.Task) { server = l.Accept(tk) })
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
	key := fmt.Sprintf("restore :%d<->%s:%d: connection already exists", snap.LocalPort, snap.Remote.Host, snap.Remote.Port)
	if _, err := stack.Restore(snap); err == nil || !strings.Contains(err.Error(), key) {
		t.Errorf("second Restore of one connection: err = %v, want %q", err, key)
	}
	for i := range snap.SndData { // Restore copied
		snap.SndData[i] = 0xee
	}
	if c.sendRoom() > 0 {
		t.Errorf("over-full connection has %d bytes of send room", c.sendRoom())
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
	if c.BufferedOut() != 0 || !c.Established() || c.sendRoom() == 0 {
		t.Errorf("drained connection: %d bytes buffered, established=%v, room=%d", c.BufferedOut(), c.Established(), c.sendRoom())
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
		c := l.Accept(tk)
		var err error
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
		c := l.Accept(tk)
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

// TestRestoredConnAnswersRetransmittedSYN: a replication layer learns of a
// passive connection as its SYN-ACK is sent, so a primary can fail with the
// SYN-ACK still held at its gate and the backup restores the connection
// anyway. The client, which never saw the SYN-ACK, retransmits its SYN; the
// restored connection answers it with the SYN-ACK the client is owed.
func TestRestoredConnAnswersRetransmittedSYN(t *testing.T) {
	p := newPair(t, 24, DefaultParams())
	out := &logGate{sim: p.sim}
	p.server.SetEgress(out)
	c, err := p.server.Restore(ConnSnapshot{LocalPort: 80, Remote: Addr{Host: "client", Port: 40000},
		ISS: 1000, IRS: 2000, SndUna: 1001, RcvNxt: 2001})
	if err != nil {
		t.Fatal(err)
	}
	syn := p.client.newSegment()
	syn.Src, syn.Dst, syn.Seq, syn.Flags, syn.Window = Addr{Host: "client", Port: 40000}, Addr{Host: "server", Port: 80}, 2000, FlagSYN, 64<<10
	p.server.input(syn)
	syn.release()
	if len(out.segs) != 1 || out.segs[0].flags != FlagSYN|FlagACK || out.segs[0].ack != 2001 || !c.Established() {
		t.Fatalf("sent %+v, want one SYN-ACK of the client's SYN from the established connection", out.segs)
	}
}
