package tcprep_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// TestZeroByteRecvRecordedAndReplayed: a replicated Recv with max ≤ 0 is
// recorded on the primary as a zero-byte read and replayed as one on the
// backup. Both replicas get (nil, nil) without waiting for input, then read
// and answer the request as usual.
func TestZeroByteRecvRecordedAndReplayed(t *testing.T) {
	sys, err := core.New(core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	app := func(socks *tcprep.Sockets, reads *[]string) func(*replication.Thread) {
		return func(th *replication.Thread) {
			l, err := socks.Listen(th, 80, 4)
			if err != nil {
				return
			}
			c := l.Accept(th)
			for _, max := range []int{0, -1, 64} {
				data, err := c.Recv(th, max)
				*reads = append(*reads, fmt.Sprintf("%d: %q %v nil=%v", max, data, err, data == nil))
				if max > 0 {
					_, _ = c.Send(th, append([]byte("re:"), data...))
				}
			}
			_ = c.Close(th)
		}
	}
	var primary, backup []string
	sys.Primary.NS.Start("echo", nil, app(sys.Primary.Sockets, &primary))
	sys.Secondary.NS.Start("echo", nil, app(sys.Secondary.Sockets, &backup))
	var reply string
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("x"))
		data, _ := c.Recv(tk, 64)
		reply = string(data)
		_ = c.Close(tk)
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{`0: "" <nil> nil=true`, `-1: "" <nil> nil=true`, `64: "x" <nil> nil=false`}
	if !reflect.DeepEqual(primary, want) || !reflect.DeepEqual(backup, want) {
		t.Errorf("reads on the primary %q, on the backup %q; want %q on both", primary, backup, want)
	}
	if reply != "re:x" {
		t.Errorf("client got %q, want \"re:x\"", reply)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("replay divergences: %d", div)
	}
}
