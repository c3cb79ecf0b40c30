package tcprep

import (
	"fmt"
	"slices"
	"strings"
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

// gateWorld is a streaming Primary whose stack sends to a client NIC that
// records every segment it receives, in order, and three established
// connections (client ports 1, 2 and 3) whose segments the test shapes
// itself: each starts as the pure ACK a Kick sends, captured before the
// Primary's gate is installed.
type gateWorld struct {
	sim   *sim.Simulation
	prim  *Primary
	blank [][]*tcpstack.Segment // by client port
	got   []string
}

// capture is an egress gate that keeps every segment, unsent.
type capture struct{ segs *[]*tcpstack.Segment }

func (c capture) Transmit(seg *tcpstack.Segment) { *c.segs = append(*c.segs, seg) }

func newGateWorld(t *testing.T) *gateWorld {
	t.Helper()
	w := &gateWorld{sim: sim.New(1)}
	part, err := hw.New(w.sim, hw.Opteron6376x4()).NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "primary", Params: kernel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	fabric := shm.NewFabric(w.sim, time.Microsecond)
	cfg := replication.DefaultConfig()
	cfg.StrictOutputCommit = false // the gate's sync barrier and pacer alone
	ns := replication.NewPrimary("ftns", k, cfg, []*shm.Ring{fabric.NewRing("ftns.log", 0, 1<<20)},
		[]*shm.Ring{fabric.NewRing("ftns.acks", 1, 64<<10)})
	stack := tcpstack.New(k, "server", tcpstack.DefaultParams())
	snic, cnic := simnet.NewNIC("server", nil), simnet.NewNIC("client", nil)
	if _, err := simnet.Connect(w.sim, snic, cnic, simnet.GigabitEthernet()); err != nil {
		t.Fatal(err)
	}
	stack.Attach(snic)
	cnic.SetRx(func(p simnet.Packet) { w.got = append(w.got, describe(p.Payload.(*tcpstack.Segment))) })
	w.blank = make([][]*tcpstack.Segment, 4)
	for port := 1; port <= 3; port++ {
		c, err := stack.Restore(tcpstack.ConnSnapshot{LocalPort: 80, Remote: tcpstack.Addr{Host: "client", Port: port},
			ISS: 1000, IRS: 2000, SndUna: 1001, RcvNxt: 2001})
		if err != nil {
			t.Fatal(err)
		}
		stack.SetEgress(capture{&w.blank[port]})
		for range 3 {
			c.Kick()
		}
	}
	w.prim = NewPrimary(ns, stack, []*shm.Ring{fabric.NewRing("tcprep.sync", 0, 1<<20)}, DefaultCosts(), nil)
	return w
}

// seg shapes a segment of the connection on client port port: "ack" a pure
// ACK, "data" one with a payload, "probe" a zero-window probe, "synack" a
// SYN-ACK.
func (w *gateWorld) seg(port int, kind string) *tcpstack.Segment {
	seg := w.blank[port][0]
	w.blank[port] = w.blank[port][1:]
	switch kind {
	case "data":
		seg.Data = []byte(fmt.Sprintf("data%d", port))
	case "probe":
		seg.Probe = true
	case "synack":
		seg.Flags |= tcpstack.FlagSYN
	}
	return seg
}

func describe(seg *tcpstack.Segment) string {
	kind := "ack"
	switch {
	case seg.Probe:
		kind = "probe"
	case seg.Flags.Has(tcpstack.FlagSYN):
		kind = "synack"
	case len(seg.Data) > 0:
		kind = "data"
	}
	return fmt.Sprintf("%d:%s", seg.Dst.Port, kind)
}

// TestGateAbsorbsSupersededPureAck: behind a busy pacer — connection 3's
// data segment is paying for its send — a pure ACK still held is absorbed
// by the next data segment of its connection: it never reaches the client
// and costs the pacer nothing. Another connection's segment, a SYN-ACK on
// the reused four-tuple (a new connection, whose ACKs are in another
// sequence space) and a zero-window probe absorb nothing. In every row the
// client receives each connection's segments in the order they entered.
func TestGateAbsorbsSupersededPureAck(t *testing.T) {
	type sub struct {
		port int
		kind string
	}
	for _, row := range []struct {
		name string
		in   []sub
		want []string
	}{
		{"same connection's data", []sub{{1, "ack"}, {1, "data"}}, []string{"3:data", "1:data"}},
		{"another connection", []sub{{1, "ack"}, {2, "data"}}, []string{"3:data", "1:ack", "2:data"}},
		{"SYN-ACK on the reused four-tuple", []sub{{1, "ack"}, {1, "synack"}, {1, "data"}},
			[]string{"3:data", "1:ack", "1:synack", "1:data"}},
		{"zero-window probe", []sub{{1, "ack"}, {1, "probe"}}, []string{"3:data", "1:ack", "1:probe"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newGateWorld(t)
			defer w.sim.Shutdown()
			g := w.prim
			g.Transmit(w.seg(3, "data"))
			for _, s := range row.in {
				g.Transmit(w.seg(s.port, s.kind))
			}
			if g.held.Len() == 0 {
				t.Fatal("the pacer was idle: nothing held")
			}
			if err := w.sim.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(w.got, row.want) {
				t.Errorf("client received %v, want %v", w.got, row.want)
			}
			wantAbsorbed := int64(len(row.in) + 1 - len(row.want))
			if g.absorbed != wantAbsorbed || g.held.Len() != 0 || len(g.acks) != 0 {
				t.Errorf("absorbed %d, want %d; %d left held, %d pure ACKs tracked", g.absorbed, wantAbsorbed, g.held.Len(), len(g.acks))
			}
			// Back to back from t=0, the pacer paid for every segment sent and
			// for nothing else.
			var busy sim.Time
			for _, d := range w.got {
				wire := 40
				if strings.HasSuffix(d, ":data") {
					wire += len("data1")
				}
				busy = busy.Add(g.cost.PerSegment + time.Duration(wire)*g.cost.PerByte)
			}
			if g.busy != busy {
				t.Errorf("pacer busy until %v, want %v", g.busy, busy)
			}
		})
	}
}

// TestDelayedAckWaitsForItsSyncUpdate: past quick-ACK mode the stack owes
// the ACK of a lone input segment and the delayed-ACK timer sends it 40 ms
// later — through the gate like any segment, so it still waits for the sync
// update of the bytes it acknowledges. Here that update queued behind a
// batch the full sync ring refused, and the ACK reaches the client only
// after a backup has taken the update off the ring.
func TestDelayedAckWaitsForItsSyncUpdate(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	boot := func(name string, cpus ...int) *kernel.Kernel {
		part, err := m.NewPartition(name, cpus...)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Boot(part, kernel.Config{Name: name, Params: kernel.DefaultParams()})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k, ck := boot("primary", 0, 1, 2, 3), boot("client", 4, 5)
	defer s.Shutdown()
	fabric := shm.NewFabric(s, time.Microsecond)
	cfg := replication.DefaultConfig()
	cfg.StrictOutputCommit = false // the gate's sync barrier alone
	ns := replication.NewPrimary("ftns", k, cfg, []*shm.Ring{fabric.NewRing("ftns.log", 0, 1<<20)},
		[]*shm.Ring{fabric.NewRing("ftns.acks", 1, 64<<10)})
	stack, client := tcpstack.New(k, "server", tcpstack.DefaultParams()), tcpstack.New(ck, "client", tcpstack.DefaultParams())
	snic, cnic := simnet.NewNIC("server", nil), simnet.NewNIC("client", nil)
	if _, err := simnet.Connect(s, snic, cnic, simnet.GigabitEthernet()); err != nil {
		t.Fatal(err)
	}
	stack.Attach(snic)
	client.Attach(cnic)
	var conns [2]*tcpstack.Conn
	for i := range conns {
		var err error
		if conns[i], err = stack.Restore(tcpstack.ConnSnapshot{LocalPort: 80, Remote: tcpstack.Addr{Host: "client", Port: 40000 + i},
			ISS: 1000, IRS: 2000, SndUna: 1001, RcvNxt: 2001}); err != nil {
			t.Fatal(err)
		}
	}
	cc, err := client.Restore(tcpstack.ConnSnapshot{LocalPort: 40000, Remote: tcpstack.Addr{Host: "server", Port: 80},
		ISS: 2000, IRS: 1000, SndUna: 2001, RcvNxt: 1001})
	if err != nil {
		t.Fatal(err)
	}
	ring := fabric.NewRing("tcprep.sync", 0, 4<<10)
	prim := NewPrimary(ns, stack, []*shm.Ring{ring}, DefaultCosts(), nil)
	for _, c := range conns {
		prim.onEstablished(c)
	}
	var acked uint64 // the client's highest ACK received
	var ackedAt sim.Time
	client.SetIngress(func(seg *tcpstack.Segment) bool {
		if seg.Ack > acked {
			acked, ackedAt = seg.Ack, s.Now()
		}
		return true
	})
	send := func(n int) {
		ck.Spawn("client", func(tk *kernel.Task) {
			for range n {
				_, _ = cc.Send(tk, []byte("x"))
				tk.Sleep(100 * time.Microsecond)
			}
		})
		if err := s.RunFor(time.Millisecond + time.Duration(n)*100*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	const quick = 16 // the stack's quick-ACK mode
	if send(quick); acked != 2001+quick {
		t.Fatalf("after the quick-ACK segments the client holds ACK %d, want %d", acked, 2001+quick)
	}
	// Another connection's update fills the ring: refused, it parks the
	// sync stream's spill server, and everything later queues behind it.
	prim.onDataIn(conns[1], make([]byte, ring.Free()))
	prim.flushForCommit()
	send(1)
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if acked != 2001+quick || prim.held.Len() != 1 || !prim.held.At(0).seg.PureAck() || prim.held.At(0).seg.Ack != 2001+quick+1 {
		t.Fatalf("client holds ACK %d and the gate holds %d segments; want %d, and the pure ACK of the last byte held",
			acked, prim.held.Len(), 2001+quick)
	}
	var updateAt sim.Time // when a backup took the last byte's update off the ring
	s.Spawn("backup", func(p *sim.Proc) {
		for {
			if m := ring.Recv(p); m.Kind == syncDataIn && string(m.Data) == "x" {
				updateAt = s.Now()
			}
		}
	})
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if acked != 2001+quick+1 || updateAt == 0 || ackedAt < updateAt {
		t.Errorf("client holds ACK %d from %v, the update left the ring at %v; want %d after the update",
			acked, ackedAt, updateAt, 2001+quick+1)
	}
}
