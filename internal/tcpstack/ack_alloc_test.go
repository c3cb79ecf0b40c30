//go:build !race

// The race runtime allocates where the plain build does not, and not the
// same count in every process (about one more per short connection), so
// the stack's allocation pins are the plain build's: CI's allocation-pins
// step runs them.

package tcpstack

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

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
// response, close on both sides, TIME_WAIT — at 22 allocations: what the
// client task costs. The connection records are not in the count: each is
// released once closed and reaped, with its bound timers, and the next
// connection on its stack takes it up again; nor are the receive-out
// buffers, which Close gives back to the stack's free list. (With fresh
// Conns and their timer bindings the count was 27; with a copy-out
// allocated per Recv as well, 36.)
func TestShortConnectionAllocs(t *testing.T) {
	sc := newShortConns(t)
	for i := 0; i < 8; i++ {
		sc.one(t)
	}
	if n := testing.AllocsPerRun(50, func() { sc.one(t) }); n != 22 {
		t.Errorf("one short connection on warm stacks: %v allocs, want 22", n)
	}
}

// TestAckPolicyAllocs pins what the policy costs a whole connection —
// connect, n 100-byte request/reply exchanges, close on both sides and
// TIME_WAIT — on warm stacks: the 22 of a short connection, whether or not
// it leaves quick-ACK mode (n > quickAcks on both ends). The delayed-ACK
// timer is bound once per connection record, and records are reused, so
// delaying ACKs costs nothing per connection and nothing per exchange.
func TestAckPolicyAllocs(t *testing.T) {
	for _, n := range []int{1, quickAcks, quickAcks + 1, 3 * quickAcks} {
		p := newPair(t, 23, DefaultParams())
		l, _ := p.server.Listen(80, 16)
		p.serverK.Spawn("server", func(tk *kernel.Task) {
			for {
				c := l.Accept(tk)
				var err error
				for err == nil {
					var req []byte
					if req, err = c.Recv(tk, 100); err == nil {
						_, _ = c.Send(tk, req)
					}
				}
				_ = c.Close(tk)
			}
		})
		req := genPayload(100, 1)
		one := func() {
			p.clientK.Spawn("client", func(tk *kernel.Task) {
				c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
				for i := 0; i < n && err == nil; i++ {
					if _, err = c.Send(tk, req); err == nil {
						_, err = c.Recv(tk, 100)
					}
				}
				if err != nil {
					t.Errorf("exchange: %v", err)
					return
				}
				_ = c.Close(tk)
			})
			if err := p.sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for range 8 {
			one()
		}
		if got := testing.AllocsPerRun(50, one); got != 22 {
			t.Errorf("a connection of %d exchanges on warm stacks: %v allocs, want 22", n, got)
		}
	}
}
