package tcpstack

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// The layer's micro-benchmarks (make bench-tcpstack): host ns/op, MB/s and
// allocs/op of the three shapes the benchmark workloads are made of. The
// steady-state allocation count — zero, Recv lends its bytes — is pinned by
// TestEstablishedTransferAllocs and a short connection's by
// TestShortConnectionAllocs; these print what a whole transfer or
// connection costs.

// BenchmarkBulkTransfer moves 1 MiB per iteration over one established
// connection — stream-failover's shape — at the default MSS and at the
// 32 KiB MSS the bulk experiments use to model segmentation offload.
func BenchmarkBulkTransfer(b *testing.B) {
	for _, tc := range []struct {
		name string
		mss  int
	}{{"mss1448", 1448}, {"mss32k", 32 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			params := DefaultParams()
			params.MSS = tc.mss
			d := newDriven(b, params, 1<<20, nil)
			d.step(b) // warm the free lists and the windows
			b.SetBytes(1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step(b)
			}
		})
	}
}

// BenchmarkShortConnection is web-short's shape: connect, a 10 KiB
// response, close on both sides, TIME_WAIT — two fresh Conns per iteration
// whose windows and receive-out buffers come from the stacks' free lists.
func BenchmarkShortConnection(b *testing.B) {
	sc := newShortConns(b)
	sc.one(b)
	b.SetBytes(int64(len(sc.response)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.one(b)
	}
	b.StopTimer()
	if want := (b.N + 1) * len(sc.response); sc.received != want {
		b.Fatalf("received %d bytes, want %d", sc.received, want)
	}
}

// shortConns is a server that answers every connection's request with one
// response and closes; one runs a client connection against it to the end
// of its TIME_WAIT.
type shortConns struct {
	p        *pair
	response []byte
	received int
}

func newShortConns(tb testing.TB) *shortConns {
	sc := &shortConns{p: newPair(tb, 16, DefaultParams()), response: genPayload(10<<10, 33)}
	l, _ := sc.p.server.Listen(80, 16)
	sc.p.serverK.Spawn("server", func(tk *kernel.Task) {
		for {
			c, err := l.Accept(tk)
			if err != nil {
				return
			}
			_, _ = c.Recv(tk, 1024)
			_, _ = c.Send(tk, sc.response)
			_ = c.Close(tk)
		}
	})
	return sc
}

func (sc *shortConns) one(tb testing.TB) {
	sc.p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := sc.p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			tb.Errorf("Connect: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("GET / HTTP/1.0\r\n\r\n"))
		for {
			data, err := c.Recv(tk, 64<<10)
			if err != nil {
				break
			}
			sc.received += len(data)
		}
		_ = c.Close(tk)
	})
	if err := sc.p.sim.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkGatedSegment sends one MSS-sized write per iteration through a
// gate that holds the segment, then releases it: the egress path of a
// replicated stack (record, event and segment all reused).
func BenchmarkGatedSegment(b *testing.B) {
	params := DefaultParams()
	d := newDriven(b, params, params.MSS, &holdGate{delay: 50 * time.Microsecond})
	d.step(b)
	b.SetBytes(int64(params.MSS))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step(b)
	}
}
