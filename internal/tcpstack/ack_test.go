package tcpstack

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Tests of the ACK policy (quickAcks, delAckTimeout): what a receiver
// acknowledges at once, what it owes, and what pays an owed ACK.

// wireSeg is one segment as it left a stack's egress gate.
type wireSeg struct {
	at     sim.Time
	flags  Flags
	ack    uint64
	n      int
	window int
	probe  bool
}

func (w wireSeg) pureAck() bool { return w.flags == FlagACK && w.n == 0 && !w.probe }

// logGate records every segment it is given, then sends it (forward) or
// drops it.
type logGate struct {
	sim     *sim.Simulation
	forward bool
	segs    []wireSeg
}

func (g *logGate) Transmit(seg *Segment) {
	g.segs = append(g.segs, wireSeg{g.sim.Now(), seg.Flags, seg.Ack, len(seg.Data), seg.Window, seg.Probe})
	if g.forward {
		seg.Send()
	} else {
		seg.Drop()
	}
}

// ackWorld is an established connection whose server end the test feeds
// segments by hand; the server's segments are logged and dropped, so the
// client never answers. The world starts past quick-ACK mode: its first
// quickAcks one-byte segments have been delivered.
type ackWorld struct {
	p    *pair
	c    *Conn // the server end
	from Addr  // the client end
	seq  uint64
	out  *logGate
}

func newAckWorld(t *testing.T) *ackWorld {
	t.Helper()
	params := DefaultParams()
	params.RecvBuf = 1024
	p := newPair(t, 21, params)
	l, _ := p.server.Listen(80, 4)
	var client *Conn
	p.serverK.Spawn("server", func(tk *kernel.Task) { l.Accept(tk) })
	p.clientK.Spawn("client", func(tk *kernel.Task) { client, _ = p.client.Connect(tk, Addr{Host: "server", Port: 80}) })
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if client == nil || p.server.Conns() != 1 {
		t.Fatal("no established connection")
	}
	w := &ackWorld{p: p, from: client.LocalAddr(), seq: client.sndNxt, out: &logGate{sim: p.sim}}
	for _, c := range p.server.conns {
		w.c = c
	}
	p.server.SetEgress(w.out)
	for i := range quickAcks {
		if got := w.deliver(t, w.seq, 1, 0); len(got) != 1 || !got[0].pureAck() || got[0].ack != w.c.rcvNxt {
			t.Fatalf("quick-ACK segment %d: sent %+v at once, want one pure ACK of it", i+1, got)
		}
	}
	return w
}

// deliver hands the server a client segment of n bytes at seq and returns
// what the server sent while taking it in.
func (w *ackWorld) deliver(t *testing.T, seq uint64, n int, flags Flags) []wireSeg {
	t.Helper()
	seg := w.p.client.newSegment()
	seg.Src, seg.Dst = w.from, Addr{Host: "server", Port: 80}
	seg.Seq, seg.Ack, seg.Flags, seg.Window = seq, w.c.sndNxt, flags|FlagACK, 64<<10
	seg.Probe = flags == 0 && n == 0
	seg.setData(genPayload(n, byte(seq)))
	if end := seq + uint64(n); end > w.seq {
		w.seq = end
	}
	before := len(w.out.segs)
	w.p.server.input(seg)
	seg.release()
	return w.out.segs[before:]
}

// TestAckPolicy: past quick-ACK mode an in-order segment taken whole is
// owed an ACK, paid by the second such segment or, for a lone one, by a
// pure ACK at exactly +delAckTimeout, and dropped if the connection is
// reset or its kernel dies first; every other kind of input segment is
// ACKed at once, paying any owed ACK with it.
func TestAckPolicy(t *testing.T) {
	t.Run("two owed segments get one ACK", func(t *testing.T) {
		w := newAckWorld(t)
		if got := w.deliver(t, w.seq, 1, 0); len(got) != 0 || !w.c.ackOwed {
			t.Fatalf("first owed segment: sent %+v, owed %v; want nothing sent and an ACK owed", got, w.c.ackOwed)
		}
		got := w.deliver(t, w.seq, 1, 0)
		if len(got) != 1 || !got[0].pureAck() || got[0].ack != w.seq || w.c.ackOwed || w.c.delAck.Armed() {
			t.Fatalf("second owed segment: sent %+v, owed %v; want one pure ACK of both, nothing owed", got, w.c.ackOwed)
		}
	})
	t.Run("a lone segment is ACKed at +40ms", func(t *testing.T) {
		w := newAckWorld(t)
		at := w.p.sim.Now()
		w.deliver(t, w.seq, 1, 0)
		if err := w.p.sim.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		got := w.out.segs[quickAcks:]
		if len(got) != 1 || !got[0].pureAck() || got[0].ack != w.seq || got[0].at != at.Add(delAckTimeout) {
			t.Fatalf("sent %+v, want one pure ACK of the segment at %v", got, at.Add(delAckTimeout))
		}
	})
	for _, row := range []struct {
		name  string
		owed  bool  // an ACK is owed when the segment arrives
		at    int64 // its sequence number, relative to the next in order
		n     int
		flags Flags // no flags and no data: a zero-window probe
	}{
		{"out-of-order data", true, 10, 5, 0},
		{"duplicate data", false, -4, 4, 0},
		{"window-truncated data", false, 0, 2000, 0},
		{"FIN", true, 0, 0, FlagFIN},
		{"FIN with data", false, 0, 3, FlagFIN},
		{"zero-window probe", true, 0, 0, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newAckWorld(t)
			if row.owed {
				w.deliver(t, w.seq, 1, 0)
			}
			got := w.deliver(t, uint64(int64(w.seq)+row.at), row.n, row.flags)
			if len(got) != 1 || got[0].flags != FlagACK || got[0].n != 0 || got[0].ack != w.c.rcvNxt {
				t.Fatalf("sent %+v at once, want one ACK of %d", got, w.c.rcvNxt)
			}
			if w.c.ackOwed || w.c.delAck.Armed() {
				t.Error("an ACK is still owed after one was sent")
			}
		})
	}
	for _, end := range []string{"a reset connection", "a dead kernel"} {
		t.Run(end+" owes nothing", func(t *testing.T) {
			w := newAckWorld(t)
			w.deliver(t, w.seq, 1, 0)
			if end == "a dead kernel" {
				w.p.serverK.Panic("injected failure", nil)
			} else {
				w.deliver(t, w.seq, 0, FlagRST)
			}
			if err := w.p.sim.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if got := w.out.segs[quickAcks:]; len(got) != 0 {
				t.Fatalf("sent %+v; want the owed ACK dropped", got)
			}
		})
	}
	t.Run("window reopen", func(t *testing.T) {
		w := newAckWorld(t)
		w.deliver(t, w.seq, w.c.recvWindow(), 0) // fills the window: owed
		var at sim.Time
		w.p.serverK.Spawn("reader", func(tk *kernel.Task) {
			_, _ = w.c.Recv(tk, 512)
			at = w.p.sim.Now()
		})
		if err := w.p.sim.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		got := w.out.segs[quickAcks:]
		if len(got) != 1 || !got[0].pureAck() || got[0].at != at || got[0].window != 512 || w.c.ackOwed {
			t.Fatalf("sent %+v, want one pure ACK reopening a 512-byte window at %v, paying the owed one", got, at)
		}
	})
}

// TestRequestReplyPastQuickAck: a request/reply exchange is one segment
// each way once both ends are past quick-ACK mode — the reply carries the
// request's ACK and the next request the reply's — and the last reply's
// ACK goes out alone at +delAckTimeout. Before that, each end ACKs each
// of its first quickAcks segments at once.
func TestRequestReplyPastQuickAck(t *testing.T) {
	const exchanges, size = 2*quickAcks + 8, 100
	p := newPair(t, 22, DefaultParams())
	srv, cli := &logGate{sim: p.sim, forward: true}, &logGate{sim: p.sim, forward: true}
	p.server.SetEgress(srv)
	p.client.SetEgress(cli)
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		var err error
		for err == nil {
			var req []byte
			if req, err = c.Recv(tk, size); err == nil {
				_, err = c.Send(tk, req)
			}
		}
	})
	var lastReply sim.Time // when the last reply reached the client's stack
	p.client.SetIngress(func(seg *Segment) bool {
		if len(seg.Data) > 0 {
			lastReply = p.sim.Now()
		}
		return true
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		for i := 0; i < exchanges && err == nil; i++ {
			if _, err = c.Send(tk, genPayload(size, byte(i))); err == nil {
				_, err = c.Recv(tk, size)
			}
		}
		if err != nil {
			t.Errorf("exchange: %v", err)
		}
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	count := func(segs []wireSeg) (data, pure int) {
		for _, s := range segs {
			if s.n > 0 {
				data++
			} else if s.pureAck() {
				pure++
			}
		}
		return data, pure
	}
	// The server: a SYN-ACK, then a quick pure ACK for each of the first
	// quickAcks requests, and one reply per request.
	if data, pure := count(srv.segs[1:]); data != exchanges || pure != quickAcks {
		t.Errorf("server sent %d replies and %d pure ACKs, want %d and %d", data, pure, exchanges, quickAcks)
	}
	// The client: a SYN, the handshake's ACK, a quick pure ACK for each of
	// the first quickAcks replies, one request per exchange, and the last
	// reply's delayed ACK.
	data, pure := count(cli.segs[1:])
	last := cli.segs[len(cli.segs)-1]
	if data != exchanges || pure != 1+quickAcks+1 || !last.pureAck() || last.at != lastReply.Add(delAckTimeout) {
		t.Errorf("client sent %d requests and %d pure ACKs, the last at %v; want %d, %d, at %v",
			data, pure, last.at, exchanges, 1+quickAcks+1, lastReply.Add(delAckTimeout))
	}
}
