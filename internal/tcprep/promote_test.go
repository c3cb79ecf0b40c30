package tcprep

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// promoteNet is how a promotion run's network misbehaves.
type promoteNet struct {
	name                string
	loss, reorder, dups int  // percent of frames the relay drops, delays, or answers with a Kick
	resetFirst          bool // the client resets a first connection before the server accepts
}

// promoteRun is one download from a primary with one backup, promoted at the
// cut-th sync-ring transfer (0: never). The primary's application writes
// promoteBytes and closes; the client sends its request in 1 KiB pieces as the
// download progresses. What the backup's replay regenerates — the output the
// primary wrote, its close of a reset connection — is mirrored onto the
// backup's table as the primary's application acts, once the bind is there.
type promoteRun struct {
	t              *testing.T
	pk, bk         *kernel.Kernel
	prim           *Primary
	sec            *Secondary
	snic           *simnet.NIC
	served         uint64 // the bind id of the connection being served
	sent, regen    int    // output the primary wrote, and what the backup regenerated of it
	closed         bool   // the primary's application closed the served connection
	resets         []uint64
	cc, pc         *tcpstack.Conn // the client's connection; the one the promoted side serves; nil once reaped
	ccAcked        uint64         // the request bytes the client saw acknowledged when its connection was reaped
	bsocks         *Sockets       // the backup's socket layer
	lst            *Listener      // its listener, adopted as a checkpoint-seeded replica does
	got, heard     []byte         // what the client read, what the promoted side read
	eof            bool
	cut, transfers int // the transfer to promote at; the transfers landed
	queued, end    int // updates the puller held when promoted; the stream's length
}

const promoteBytes = 64 << 10

var promoteStream, promoteReq = patterned(promoteBytes+64<<10, 1), patterned(8<<10, 2)

func patterned(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func runPromote(t *testing.T, net promoteNet, cut int) *promoteRun {
	s := sim.New(7)
	defer s.Shutdown()
	m := hw.New(s, hw.Opteron6376x4())
	boot := func(name string, nodes ...int) *kernel.Kernel {
		part, err := m.NewPartition(name, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Boot(part, kernel.Config{Name: name, Params: kernel.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	r := &promoteRun{t: t, pk: boot("primary", 0, 1), bk: boot("backup", 2, 3), cut: cut, end: promoteBytes}
	ck := boot("client", 4, 5)
	fabric := shm.NewFabric(s, time.Microsecond)
	cfg := replication.DefaultConfig()
	cfg.StrictOutputCommit = false // the gate's sync barrier and pacer alone
	ns := replication.NewPrimary("ftns", r.pk, cfg, []*shm.Ring{fabric.NewRing("ftns.log", 0, 1<<20)},
		[]*shm.Ring{fabric.NewRing("ftns.acks", 1, 64<<10)})
	ring := fabric.NewRing("tcprep.sync", 0, 256<<10)
	pstack, cstack := tcpstack.New(r.pk, "server", tcpstack.DefaultParams()), tcpstack.New(ck, "client", tcpstack.DefaultParams())
	r.prim = NewPrimary(ns, pstack, []*shm.Ring{ring}, DefaultCosts(), nil)
	r.sec = NewSecondary(r.bk, ring, DefaultCosts())
	r.sec.StartPull()
	r.bsocks = NewSockets(replication.NewLive("ftns", r.bk), nil, nil, r.sec)
	r.lst = r.bsocks.AdoptListener(80, 1)
	ring.OnDelivered(func() {
		if r.transfers++; r.transfers == r.cut {
			r.promote()
		}
	})

	// client <-> relay <-> server: the relay drops, delays or answers a frame
	// with a go-back-N re-send of its sender's unacknowledged data (Kick).
	rng := rand.New(rand.NewSource(1))
	r.snic = simnet.NewNIC("server", nil)
	cnic, toC, toS := simnet.NewNIC("client", nil), simnet.NewNIC("relay-c", nil), simnet.NewNIC("relay-s", nil)
	for _, l := range [][2]*simnet.NIC{{cnic, toC}, {toS, r.snic}} {
		if _, err := simnet.Connect(s, l[0], l[1], simnet.GigabitEthernet()); err != nil {
			t.Fatal(err)
		}
	}
	relay := func(out *simnet.NIC, sender func() *tcpstack.Conn) func(simnet.Packet) {
		return func(p simnet.Packet) {
			switch n := rng.Intn(100); {
			case n < net.loss: // lost
			case n < net.loss+net.reorder:
				s.Schedule(time.Duration(rng.Intn(300))*time.Microsecond, func() { out.Send(p) })
			default:
				out.Send(p)
				if c := sender(); n < net.loss+net.reorder+net.dups && c != nil {
					c.Kick()
				}
			}
		}
	}
	toC.SetRx(relay(toS, func() *tcpstack.Conn { return r.cc }))
	toS.SetRx(relay(toC, func() *tcpstack.Conn { return r.serverConn() }))
	pstack.Attach(r.snic)
	cstack.Attach(cnic)
	cstack.OnReaped = func(c *tcpstack.Conn) { // its record is released at the client's Close
		if c == r.cc {
			r.ccAcked, r.cc = c.OutAcked(), nil
		}
	}

	l, err := pstack.Listen(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	ns.Start("server", nil, func(th *replication.Thread) {
		tk := th.Task()
		tk.Sleep(2 * time.Millisecond) // a reset before accept has happened by now
		for id := uint64(2); ; id++ {  // the listener is socket 1
			c := l.Accept(tk)
			lc := r.prim.bindConn(th, id, c)
			r.bsocks.nextID = id // the backup's replayed accept
			if c.Err() != nil {
				_ = c.Close(tk)
				lc.closed()
				r.resets = append(r.resets, id)
				r.mirror()
				continue
			}
			r.served = id
			for r.sent < promoteBytes {
				n, err := c.Send(tk, promoteStream[r.sent:r.sent+8<<10])
				if r.sent += n; err != nil {
					return
				}
				r.mirror()
			}
			_ = c.Close(tk)
			lc.closed()
			r.closed = true
			r.mirror()
			return
		}
	})
	ck.Spawn("client", func(tk *kernel.Task) {
		if net.resetFirst {
			if c, err := cstack.Connect(tk, tcpstack.Addr{Host: "server", Port: 80}); err == nil {
				c.Abort()
			}
		}
		c, err := cstack.Connect(tk, tcpstack.Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("cut %d: connect: %v", cut, err)
			return
		}
		r.cc = c
		defer func() { _ = c.Close(tk) }()
		sent := 0
		for {
			data, err := c.Recv(tk, 32<<10)
			if r.got = append(r.got, data...); err != nil {
				r.eof = errors.Is(err, tcpstack.EOF)
				break
			}
			for sent < len(promoteReq) && len(r.got) >= (sent>>10+1)*(16<<10) {
				n, _ := c.Send(tk, promoteReq[sent:sent+1<<10])
				sent += n
			}
			if len(r.got) >= promoteBytes { // all of it: a promoted side reads it before it closes
				n, _ := c.Send(tk, promoteReq[sent:])
				sent += n
			}
		}
		_, _ = c.Send(tk, promoteReq[sent:])
	})
	if err := s.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return r
}

// serverConn is the served connection on whichever side serves it.
func (r *promoteRun) serverConn() *tcpstack.Conn {
	if lc := r.prim.table.binds[r.served]; lc != nil && r.pk.Alive() {
		return lc.live
	}
	return r.pc
}

// mirror is the backup's replay catching up with the primary's application.
func (r *promoteRun) mirror() {
	if lc := r.sec.table.binds[r.served]; lc != nil && r.regen < r.sent {
		lc.appendOut(promoteStream[r.regen:r.sent])
		r.regen = r.sent
	}
	for _, id := range r.resets {
		if lc := r.sec.table.binds[id]; lc != nil {
			lc.appClosed = true
		}
	}
}

// promote kills the primary in the instant a sync transfer lands and
// promotes the backup's socket layer, the puller's taken updates included.
// The promoted application serves the connection it had accepted, and every
// one it accepts from the re-opened listener: it writes the stream up to
// 64 KiB past what the primary's had written — nowhere past it, if that had
// closed — reads the whole request, and closes.
func (r *promoteRun) promote() {
	r.pk.Panic("promotion cut", nil)
	r.mirror()
	r.queued = r.sec.q.Len()
	stack := tcpstack.New(r.bk, "server", tcpstack.DefaultParams())
	stack.Attach(r.snic)
	stack.OnReaped = func(c *tcpstack.Conn) {
		if c == r.pc {
			r.pc = nil
		}
	}
	if err := r.bsocks.Promote(stack); err != nil {
		r.t.Errorf("transfer %d: %v", r.transfers, err) // a sim callback: t.Fatal would hang the run
		return
	}
	if !r.closed {
		r.end = r.sent + 64<<10
	}
	serve := func(c *Conn, from int) {
		r.pc = c.real
		r.bsocks.ns.Start("promoted", nil, func(th *replication.Thread) {
			_, err := c.Send(th, promoteStream[from:r.end])
			var heard []byte
			for err == nil && len(heard) < len(promoteReq) {
				var data []byte
				data, err = c.Recv(th, 32<<10)
				heard = append(heard, data...)
			}
			if err == nil { // a connection the client reset fails instead
				r.heard = heard
			}
			_ = c.Close(th)
		})
	}
	if lc := r.sec.table.binds[r.served]; lc != nil && lc.live != nil {
		serve(r.bsocks.AdoptConn(nil, r.served, 0), r.regen) // bound: AdoptConn does not wait
	}
	r.bsocks.ns.Start("promoted-accept", nil, func(th *replication.Thread) {
		for {
			c := r.lst.Accept(th)
			serve(c, 0)
		}
	})
}

// check holds the run to the stream its primary would have produced: the
// client read exactly the download and saw every request byte acknowledged,
// and a promoted side read exactly the request.
func (r *promoteRun) check() string {
	switch {
	case !r.eof || !bytes.Equal(r.got, promoteStream[:r.end]):
		return fmt.Sprintf("client read %d bytes (EOF %v), want the %d of the stream: %s", len(r.got), r.eof, r.end, firstDiff(r.got, promoteStream[:r.end]))
	case r.cc != nil || r.ccAcked != uint64(len(promoteReq)):
		return fmt.Sprintf("client saw %d request bytes acknowledged by its connection's end (reaped %v), want %d", r.ccAcked, r.cc == nil, len(promoteReq))
	case r.cut > 0 && r.transfers >= r.cut && !bytes.Equal(r.heard, promoteReq):
		return fmt.Sprintf("promoted side read %d request bytes, the client sent %d: %s", len(r.heard), len(promoteReq), firstDiff(r.heard, promoteReq))
	}
	return ""
}

// firstDiff names the first offset at which got departs from want.
func firstDiff(got, want []byte) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("they first differ at offset %d", i)
		}
	}
	return fmt.Sprintf("they agree up to offset %d, where one ends", min(len(got), len(want)))
}

// TestPromoteAfterAnySyncPrefix is the other half of the FT-TCP model: for a
// 64 KiB download with a request streamed against it, the primary is killed
// and the backup promoted in the instant each sync-ring transfer lands — after
// every prefix of the stream, with the puller's taken-but-unapplied updates
// (Secondary.q) mid-batch — over a clean network, one that drops, delays
// and duplicates frames, and with the client resetting a first connection
// before the server accepts it. Each promoted stack must give the client the
// next 64 KiB of the primary's stream byte for byte, acknowledge every
// request byte, and hold exactly the request bytes the client saw
// acknowledged.
func TestPromoteAfterAnySyncPrefix(t *testing.T) {
	for _, net := range []promoteNet{{name: "clean"}, {name: "faults", loss: 2, reorder: 5, dups: 2}, {name: "reset", resetFirst: true}} {
		t.Run(net.name, func(t *testing.T) {
			t.Parallel()
			ref := runPromote(t, net, 0)
			if d := ref.check(); d != "" {
				t.Fatalf("never promoted: %s", d)
			}
			queued := 0
			for cut := 1; cut <= ref.transfers; cut++ {
				r := runPromote(t, net, cut)
				if d := r.check(); d != "" {
					t.Fatalf("promoted at sync transfer %d of %d: %s", cut, ref.transfers, d)
				}
				queued += min(r.queued, 1)
			}
			if queued < 5 {
				t.Errorf("%d of %d promotions found the puller holding updates; want 5", queued, ref.transfers)
			}
			t.Logf("%d promotions, %d with updates taken off the ring and not applied", ref.transfers, queued)
		})
	}
}
