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
