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
	w.prim = NewPrimary(ns, stack, PrimaryConfig{Syncs: []*shm.Ring{fabric.NewRing("tcprep.sync", 0, 1<<20)}})
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
			g := w.prim.gate
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
				busy = busy.Add(g.cfg.PerSegment + time.Duration(wire)*g.cfg.PerByte)
			}
			if g.busy != busy {
				t.Errorf("pacer busy until %v, want %v", g.busy, busy)
			}
		})
	}
}
