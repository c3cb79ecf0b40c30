package memcached_test

import (
	"strings"
	"testing"

	"repro/internal/apps/memcached"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

func freshAccounting(t *testing.T) *kmem.Accounting {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.MemDumpMachine())
	part, err := m.NewPartition("linux", 0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "linux"})
	if err != nil {
		t.Fatal(err)
	}
	return k.Mem()
}

func TestLoadModelMonotone(t *testing.T) {
	var prevUser, prevIgnored int64
	for _, mult := range []int{3, 30, 90, 180} {
		acct := freshAccounting(t)
		snap, err := memcached.ApplyLoad(acct, memcached.DefaultLoadModel(), mult)
		if err != nil {
			t.Fatalf("ApplyLoad(%d): %v", mult, err)
		}
		if snap.User <= prevUser || snap.Ignored <= prevIgnored {
			t.Errorf("occupancy not growing at %dx", mult)
		}
		prevUser, prevIgnored = snap.User, snap.Ignored
		if sum := snap.Free + snap.Ignored + snap.Delayed + snap.User; sum != snap.Total {
			t.Errorf("accounting leak at %dx", mult)
		}
	}
}

func TestLoadModelMatchesPaperAt180x(t *testing.T) {
	acct := freshAccounting(t)
	snap, err := memcached.ApplyLoad(acct, memcached.DefaultLoadModel(), 180)
	if err != nil {
		t.Fatal(err)
	}
	ignored := 100 * float64(snap.Ignored) / float64(snap.Total)
	delayed := 100 * float64(snap.Delayed) / float64(snap.Total)
	if ignored < 12 || ignored > 18 {
		t.Errorf("Ignored = %.1f%%, paper reports ~15%%", ignored)
	}
	if delayed < 17 || delayed > 23 {
		t.Errorf("Delayed = %.1f%%, paper reports ~20%%", delayed)
	}
}

func TestReplicatedKVServer(t *testing.T) {
	sys, err := core.New(core.WithSeed(4), core.WithRejoin(false))
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	var st memcached.ServerStats
	sys.Run(core.App{Name: "memcached", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		memcached.RunServer(th, socks, memcached.ServerConfig{Port: 11211, Workers: 4}, &st)
	}})
	var replies []string
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(11211))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		send := func(line string) {
			if _, err := c.Send(tk, []byte(line+"\n")); err != nil {
				t.Errorf("send %q: %v", line, err)
				return
			}
			data, err := c.Recv(tk, 4096)
			if err != nil {
				t.Errorf("recv after %q: %v", line, err)
				return
			}
			replies = append(replies, string(data))
		}
		send("set k1 hello")
		send("get k1")
		send("get missing")
		send("bogus")
		_, _ = c.Send(tk, []byte("quit\n"))
		_ = c.Close(tk)
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 4 {
		t.Fatalf("replies = %q", replies)
	}
	if replies[0] != "STORED\n" {
		t.Errorf("set reply = %q", replies[0])
	}
	if !strings.Contains(replies[1], "VALUE k1 hello") {
		t.Errorf("get reply = %q", replies[1])
	}
	if replies[2] != "END\n" {
		t.Errorf("miss reply = %q", replies[2])
	}
	if replies[3] != "ERROR\n" {
		t.Errorf("bogus reply = %q", replies[3])
	}
	// Both replicas execute the operations (the secondary replays them),
	// and they share the stats struct in this test: every count doubles.
	if st.Sets != 2 || st.Gets != 4 || st.Hits != 2 {
		t.Errorf("stats = %+v, want doubled counts from both replicas", st)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("%d replay divergences", div)
	}
}
