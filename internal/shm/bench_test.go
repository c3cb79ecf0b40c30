package shm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// The shm layer's micro-benchmarks (make bench-shm): host ns and
// allocations per ring operation. Both read 0 allocs/op — records, tickets
// and queue arrays are recycled per ring (DESIGN.md §21).

// BenchmarkReserveCommitRecv is the zero-copy path end to end, per message:
// reserve a span, write a batch into it in place, commit, let it propagate,
// and receive it into the caller's buffer.
func BenchmarkReserveCommitRecv(b *testing.B) {
	for _, batch := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			s := sim.New(1)
			defer s.Shutdown()
			r := newRing(s, 1<<20)
			got := 0
			s.Spawn("tx", func(p *sim.Proc) {
				for sent := 0; sent < b.N; {
					sp := r.Reserve(p, batch, int64(batch)*64)
					for i := 0; i < batch; i, sent = i+1, sent+1 {
						sp.Put(Message{Kind: 1, Size: 64, W: [7]uint64{uint64(sent)}})
					}
					sp.Commit()
				}
			})
			s.Spawn("rx", func(p *sim.Proc) {
				var buf []Message
				for got < b.N {
					buf = r.RecvBatchInto(p, buf[:0], 0)
					got += len(buf)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil || got < b.N {
				b.Fatalf("received %d of %d: %v", got, b.N, err)
			}
		})
	}
}

// BenchmarkSendBlocked is the back-pressured path: the ring holds two
// messages, so nearly every Send queues a ticket, parks and is admitted by
// the receiver's next pop.
func BenchmarkSendBlocked(b *testing.B) {
	s := sim.New(1)
	defer s.Shutdown()
	r := newRing(s, 2*(headerBytes+64))
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			r.Send(p, Message{Kind: 1, Size: 64, W: [7]uint64{uint64(i)}})
		}
	})
	got := 0
	s.Spawn("rx", func(p *sim.Proc) {
		for ; got < b.N; got++ {
			r.Recv(p)
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil || got < b.N {
		b.Fatalf("received %d of %d: %v", got, b.N, err)
	}
	if b.N > 100 && r.Stats().ReserveWaits < int64(b.N)/2 {
		b.Fatalf("only %d of %d sends blocked", r.Stats().ReserveWaits, b.N)
	}
}

// BenchmarkOutboxCycle is the batching sender end to end, per entry: add
// eight entries, the second half merged into the tail, force the flush and
// receive the transfer. The receiver is the slower side, so a share of the
// cycles find the ring full and the buffer goes round the spill server's
// blocking flush and its spare array.
func BenchmarkOutboxCycle(b *testing.B) {
	s := sim.New(1)
	defer s.Shutdown()
	r := newRing(s, 4*(headerBytes+4*64))
	var g Outboxes
	var o Outbox
	g.Init(s, 50*time.Microsecond, func() bool { return true })
	g.Attach(&o, r, o.TryFlush, func(int, uint64) {})
	s.Spawn("spill", g.Serve)
	s.Spawn("tx", func(p *sim.Proc) {
		for sent := 0; sent < b.N; sent += 8 {
			for i := 0; i < 4; i++ {
				o.Add(Message{Kind: 1, Size: 64, W: [7]uint64{uint64(sent + i)}})
				o.Tail().W[1]++
				o.Merged(0)
			}
			o.TryFlush()
			for p.Sleep(time.Microsecond); o.Len() > 0; p.Sleep(time.Microsecond) {
				// refused: the spill server has it, or will once its ticket is served
			}
		}
	})
	got := 0
	s.Spawn("rx", func(p *sim.Proc) {
		var buf []Message
		for got < b.N {
			buf = r.RecvBatchInto(p, buf[:0], 4)
			got += 2 * len(buf)
			p.Sleep(1250 * time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil || got < b.N {
		b.Fatalf("received %d of %d: %v", got, b.N, err)
	}
	if b.N > 1000 && r.Stats().ReserveWaits < int64(b.N)/64 {
		b.Fatalf("only %d of %d flushes went through the spill server", r.Stats().ReserveWaits, b.N/8)
	}
}
