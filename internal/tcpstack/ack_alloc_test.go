//go:build !race

// The race runtime allocates where the plain build does not, and not the
// same count in every process (about one more per short connection), so
// this pin is the plain build's: CI's allocation-pins step runs it.

package tcpstack

import (
	"testing"

	"repro/internal/kernel"
)

// TestAckPolicyAllocs pins what the policy costs a whole connection —
// connect, n 100-byte request/reply exchanges, close on both sides and
// TIME_WAIT — on warm stacks. One that never leaves quick-ACK mode (n ≤
// quickAcks on both ends) allocates the 27 a connection allocated before
// ACKs were delayed: the timer is bound on the first delayed ACK, not in
// newConn. One that does pays one allocation per end for the binding, once,
// and nothing per exchange.
func TestAckPolicyAllocs(t *testing.T) {
	for _, row := range []struct{ n, want int }{{1, 27}, {quickAcks, 27}, {quickAcks + 1, 29}, {3 * quickAcks, 29}} {
		p := newPair(t, 23, DefaultParams())
		l, _ := p.server.Listen(80, 16)
		p.serverK.Spawn("server", func(tk *kernel.Task) {
			for {
				c, err := l.Accept(tk)
				if err != nil {
					return
				}
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
				for i := 0; i < row.n && err == nil; i++ {
					if _, err = c.Send(tk, req); err == nil {
						_, err = c.Recv(tk, 100)
					}
				}
				if err != nil {
					t.Errorf("exchange: %v", err)
					return
				}
				_ = c.Close(tk)
				for err == nil {
					_, err = c.Recv(tk, 100)
				}
			})
			if err := p.sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for range 8 {
			one()
		}
		if got := testing.AllocsPerRun(50, one); got != float64(row.want) {
			t.Errorf("a connection of %d exchanges on warm stacks: %v allocs, want %d", row.n, got, row.want)
		}
	}
}
