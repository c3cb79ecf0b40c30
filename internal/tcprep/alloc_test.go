//go:build !race

// The race runtime allocates where the plain build does not, so this pin is
// the plain build's, like tcpstack's: CI's allocation-pins step runs it.

package tcprep_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// TestConnCycleAllocatesNothing pins a connection's whole life on warm free
// lists — accept, recv, send, close on the recording side and the same
// sections replayed on the backup, with a client that connects, requests,
// reads the reply and closes — at zero allocations: the stacks reuse their
// Conn records, each side's ConnTable carves its record from a chunk, the
// socket handle lives in the record, and the reads are lent from reused
// storage. What is left is the retained state's growth — table chunks, the
// logs' chunks, the maps of ids — which over 500 cycles averages less than
// one allocation a cycle (a window of 50 can catch several maps doubling).
func TestConnCycleAllocatesNothing(t *testing.T) {
	tcp := tcpstack.DefaultParams()
	tcp.TimeWait = time.Millisecond // both stacks' records come back within a cycle
	sys, err := core.New(core.WithSeed(1), core.WithTCP(tcp))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 4<<10)
	serve := func(socks *tcprep.Sockets) func(*replication.Thread) {
		return func(th *replication.Thread) {
			l, err := socks.Listen(th, 80, 4)
			if err != nil {
				t.Errorf("Listen: %v", err)
				return
			}
			for {
				c := l.Accept(th)
				if _, err := c.Recv(th, 64); err == nil {
					_, _ = c.Send(th, resp)
				}
				_ = c.Close(th)
			}
		}
	}
	sys.Primary.NS.Start("server", nil, serve(sys.Primary.Sockets))
	sys.Secondary.NS.Start("server", nil, serve(sys.Secondary.Sockets))
	var kick sim.WaitQueue
	done := 0
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		for {
			kick.Wait(tk.Proc())
			c, err := client.Stack.Connect(tk, client.ServerAddr(80))
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			_, _ = c.Send(tk, []byte("GET"))
			for got := 0; got < len(resp); {
				data, err := c.Recv(tk, 64<<10)
				if err != nil {
					break
				}
				got += len(data)
			}
			_ = c.Close(tk)
			done++
		}
	})
	cycle := func() {
		kick.WakeAll(0)
		if err := sys.Sim.RunFor(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Sim.RunFor(10 * time.Millisecond); err != nil { // the servers listen, the client waits
		t.Fatal(err)
	}
	for range 16 {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Errorf("a warm connection cycle allocates %v times, want 0", n)
	}
	if done != 16+501 {
		t.Errorf("%d cycles completed, want %d", done, 16+501)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("replay divergences: %d", div)
	}
}
