package tcprep

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// gateTimeline is what a gate run shows from outside: every output-commit
// and sync-flush event, digested with its count, and every segment the
// client received, digested with its arrival instant.
type gateTimeline struct {
	events   int
	digest   string
	segments int
	arrivals string
	last     string
}

// runGateTimeline serves a 128 KiB reply under strict output commit to two
// backups whose sync pullers have not started, over sync rings of 2 KiB
// (backup 1) and 1 KiB (backup 2): backup 2's ring fills first and holds
// output, then backup 1's. At 5 ms backup 2's sync link is dropped with
// segments held behind it, releasing those only its ring held, and the
// reply runs on until backup 1's ring is full again; at 10 ms backup 1's
// puller starts and its ring drains, releasing the rest.
func runGateTimeline(t *testing.T) gateTimeline {
	s := sim.New(1)
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
	pk, ck := boot("primary", 0, 1), boot("client", 6, 7)
	bks := []*kernel.Kernel{boot("backup1", 2, 3), boot("backup2", 4, 5)}
	tr := obs.New(s, obs.Config{Trace: true})
	fabric := shm.NewFabric(s, time.Microsecond)
	cfg := replication.DefaultConfig()
	var logs, acks, syncs []*shm.Ring
	for i, bk := range bks {
		log, ack := fabric.NewRing(fmt.Sprintf("ftns.log%d", i), 0, 1<<20), fabric.NewRing(fmt.Sprintf("ftns.acks%d", i), 1, 64<<10)
		logs, acks = append(logs, log), append(acks, ack)
		replication.NewSecondary("ftns", bk, cfg, log, ack)
		syncs = append(syncs, fabric.NewRing(fmt.Sprintf("tcprep.sync%d", i), 0, int64(2-i)<<10))
	}
	ns := replication.NewPrimary("ftns", pk, cfg, logs, acks)
	ns.Instrument(tr.Scope("primary/ftns"), tr.Registry())
	pstack, cstack := tcpstack.New(pk, "server", tcpstack.DefaultParams()), tcpstack.New(ck, "client", tcpstack.DefaultParams())
	prim := NewPrimary(ns, pstack, syncs, DefaultCosts(), nil)
	prim.Instrument(tr.Scope("primary/tcprep"), tr.Registry())
	var secs []*Secondary
	for i, bk := range bks {
		secs = append(secs, NewSecondary(bk, syncs[i], DefaultCosts()))
	}
	snic, cnic := simnet.NewNIC("server", nil), simnet.NewNIC("client", nil)
	if _, err := simnet.Connect(s, snic, cnic, simnet.GigabitEthernet()); err != nil {
		t.Fatal(err)
	}
	pstack.Attach(snic)
	cstack.Attach(cnic)

	arrivals := fnv.New64a()
	segments := 0
	cstack.SetIngress(func(seg *tcpstack.Segment) bool {
		segments++
		fmt.Fprintf(arrivals, "%d %d %d %d %d\n", s.Now(), seg.Seq, seg.Ack, len(seg.Data), seg.Flags)
		return true
	})
	reply := patterned(128<<10, 3)
	socks := NewSockets(ns, pstack, prim, nil)
	ns.Start("server", nil, func(th *replication.Thread) {
		l, err := socks.Listen(th, 80, 4)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c := l.Accept(th)
		if _, err := c.Recv(th, 1<<10); err != nil {
			t.Errorf("server recv: %v", err)
		}
		for sent := 0; sent < len(reply); sent += 4 << 10 {
			if _, err := c.Send(th, reply[sent:sent+4<<10]); err != nil {
				t.Errorf("server send: %v", err)
				return
			}
		}
		_ = c.Close(th)
	})
	var got int
	ck.Spawn("client", func(tk *kernel.Task) {
		c, err := cstack.Connect(tk, tcpstack.Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("GET / HTTP/1.0\r\n\r\n"))
		for {
			data, err := c.Recv(tk, 32<<10)
			if got += len(data); err != nil {
				break
			}
		}
		_ = c.Close(tk)
	})
	s.Schedule(5*time.Millisecond, func() { prim.DropRing(1) })
	s.Schedule(10*time.Millisecond, secs[0].StartPull)
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != len(reply) {
		t.Errorf("client read %d bytes, want %d", got, len(reply))
	}

	tl := gateTimeline{segments: segments, arrivals: fmt.Sprintf("%016x", arrivals.Sum64())}
	h := fnv.New64a()
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.OutputHeld, obs.SyncFlush, obs.OutputReleased:
			tl.events++
			tl.last = fmt.Sprintf("%v %s %v %d %d", e.At, e.Scope, e.Kind, e.Seq, e.Arg)
			fmt.Fprintln(h, tl.last)
		}
	}
	tl.digest = fmt.Sprintf("%016x", h.Sum64())
	return tl
}

// TestGateTimelineIsPinned pins the output-commit hold path — segments held
// behind a full sync ring, a link dropped while they wait, the rest let go
// as the last ring drains, all under strict det-log commit — to the events
// and arrivals recorded when the egress gate and the sync barrier were two
// queues: one cursor over the held segments must call the namespace's
// OnStable at the same instants in the same order.
func TestGateTimelineIsPinned(t *testing.T) {
	want := gateTimeline{events: 216, digest: "7bc0d74f5fd5c090", segments: 100, arrivals: "ceef8cdeac87c129",
		last: "505.545272ms primary/tcprep sync-flush 63 1"}
	if got := runGateTimeline(t); got != want {
		t.Errorf("timeline moved:\n got %#v\nwant %#v", got, want)
	}
}
