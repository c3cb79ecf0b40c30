package shm

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// TestMessageSize pins the message at 112 bytes: every ring record, lane
// queue and catch-up backlog between sender and replayer copies it by
// value, so a fatter message is paid per queued entry.
func TestMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 112 {
		t.Fatalf("Message is %d bytes, want <= 112", size)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestStaleHandleReadsClosed: a handle kept across DropInflight, across
// Drain and across Abort reads closed — Commit and Abort do nothing, Put
// panics — while the record underneath already serves another reservation,
// which none of it may disturb.
func TestStaleHandleReadsClosed(t *testing.T) {
	lose := map[string]func(f *Fabric, r *Ring, sp Span){
		"DropInflight": func(f *Fabric, _ *Ring, _ Span) { f.DropInflight(0) },
		"Drain":        func(_ *Fabric, r *Ring, _ Span) { r.Drain() },
		"Abort":        func(_ *Fabric, _ *Ring, sp Span) { sp.Abort() },
	}
	for name, fn := range lose {
		t.Run(name, func(t *testing.T) {
			s := sim.New(1)
			f := NewFabric(s, 0)
			r := f.NewRing("test", 0, 1<<10)
			stale := r.TryReserve(2, 128)
			stale.Put(Message{Kind: 1, Size: 16, W: [7]uint64{1}})
			fn(f, r, stale)

			next := r.TryReserve(2, 128)
			if next.x != stale.x {
				t.Fatalf("the released record was not reused (free list holds %d)", len(r.free))
			}
			next.Put(Message{Kind: 2, Size: 16, W: [7]uint64{2}})

			if stale.Open() || stale.Len() != 0 {
				t.Errorf("stale handle reads open=%v len=%d", stale.Open(), stale.Len())
			}
			stale.Commit()
			stale.Abort()
			mustPanic(t, "Put on a stale handle", func() { stale.Put(Message{Kind: 3}) })
			if !next.Open() || next.Len() != 1 || r.OpenSpans() != 1 || r.InFlight() != 0 {
				t.Fatalf("stale handle disturbed the record's tenant: open=%v len=%d spans=%d inflight=%d",
					next.Open(), next.Len(), r.OpenSpans(), r.InFlight())
			}

			next.Commit()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if m, ok := r.TryRecv(); !ok || m.Kind != 2 || m.W[0] != 2 {
				t.Errorf("received %+v, %v; want the second reservation's message", m, ok)
			}
			if next.Open() {
				t.Error("published span still reads open")
			}
			mustPanic(t, "Put on a published handle", func() { next.Put(Message{Kind: 3}) })
		})
	}
}

// TestReleasedRecordIsPoisoned: test binaries scribble a record's messages
// when it is released, so a view of them kept past that point (the chaos
// hook's argument, say) cannot pass for live data.
func TestReleasedRecordIsPoisoned(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<10)
	var kept []Message
	r.SetChaosHook(func(msgs []Message) ChaosVerdict {
		kept = msgs // what the hook is told not to do
		return ChaosVerdict{}
	})
	r.TrySend(Message{Kind: 7, Size: 8, W: [7]uint64{42}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if m, ok := r.TryRecv(); !ok || m.Kind != 7 || m.W[0] != 42 {
		t.Fatalf("delivered %+v, %v", m, ok)
	}
	if kept[0].Kind == 7 || kept[0].W[0] == 42 {
		t.Errorf("released record still holds its message: %+v", kept[0])
	}
}

// TestRingCycleAllocatesNothing: with the ring's free lists warm, a
// reservation, four in-place writes, the commit, the propagation and a
// receive into the caller's buffer allocate nothing, and neither do the
// wrapper sends.
func TestRingCycleAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<12)
	buf := make([]Message, 0, 8)
	p := s.Spawn("rx", func(p *sim.Proc) {})
	cycle := func() {
		sp := r.TryReserve(4, 256)
		for i := 0; i < 4; i++ {
			sp.Put(Message{Kind: 1, Size: 64, W: [7]uint64{uint64(i)}})
		}
		sp.Commit()
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if buf = r.RecvBatchInto(p, buf[:0], 0); len(buf) != 4 || buf[3].W[0] != 3 {
			t.Fatalf("received %d messages", len(buf))
		}
		if !r.TrySend(Message{Kind: 2, Size: 8}) || !r.TrySendBatch(buf[:2]) {
			t.Fatal("wrapper sends refused")
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		buf = r.RecvBatchInto(p, buf[:0], 0)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("reserve + 4 puts + commit + receive allocates %.1f times per cycle, want 0", n)
	}
}

// TestGrowingBacklogAllocatesPerChunk: a backlog that may grow for a whole
// run — a ring's delivered messages, a replayer lane, the backup's sync
// queue, all a sim.Log of messages — never copies what it holds to grow.
// Cycling at a constant depth (one more in, the oldest out), empty between
// messages or deeper than a chunk, allocates nothing; a backlog grown by n
// allocates at most ⌈n/512⌉ + 1 chunks and moves none of the messages it
// already held.
func TestGrowingBacklogAllocatesPerChunk(t *testing.T) {
	const depth = 700 // more than one 512-message chunk
	grows := []int{100, 512, 3000}
	t.Run("ring", func(t *testing.T) {
		s := sim.New(1)
		defer s.Shutdown()
		r := newRing(s, 1<<30)
		sent, next := uint64(0), uint64(0)
		send := func(n int) {
			for range n {
				if !r.TrySend(Message{Kind: 1, Size: 8, W: [7]uint64{sent}}) {
					t.Fatal("ring refused a send")
				}
				sent++
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		recv := func(n int) {
			for range n {
				if m, ok := r.TryRecv(); !ok || m.W[0] != next {
					t.Fatalf("received %+v, %v; want message %d", m, ok, next)
				}
				next++
			}
		}
		cycle := func() { send(1); recv(1) }
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("a ring drained after every message allocates %.1f times per message, want 0", n)
		}
		send(depth)
		for range 2 * depth {
			cycle()
		}
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Errorf("a ring cycling at depth %d allocates %.1f times per message, want 0", depth, n)
		}
		for _, n := range grows {
			for range 2 { // the records, the in-flight list and the chunk table reach this size
				send(n)
				recv(n)
			}
			held := make([]*slot, depth)
			grow := func() {
				for i := range held {
					held[i] = r.buf.At(i)
				}
				send(n)
				for i, p := range held {
					if r.buf.At(i) != p {
						t.Fatalf("growing the backlog by %d moved delivered message %d", n, i)
					}
				}
			}
			if a, most := testing.AllocsPerRun(1, func() { grow(); recv(n) }), float64((n+511)/512+1); a > most {
				t.Errorf("a backlog grown by %d allocates %.0f times, want at most %.0f chunks", n, a, most)
			}
		}
	})
	t.Run("lane", func(t *testing.T) {
		var q sim.Log[Message]
		in, out := uint64(0), uint64(0)
		push := func(n int) {
			for range n {
				q.Append(Message{Kind: 1, W: [7]uint64{in}})
				in++
			}
		}
		pop := func(n int) {
			for range n {
				if m := q.PopFront(); m.W[0] != out {
					t.Fatalf("popped message %d, want %d", m.W[0], out)
				}
				out++
			}
		}
		cycle := func() { push(1); pop(1) }
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("a lane drained after every message allocates %.1f times per message, want 0", n)
		}
		push(depth)
		for range 2 * depth {
			cycle()
		}
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Errorf("a lane cycling at depth %d allocates %.1f times per message, want 0", depth, n)
		}
		for _, n := range grows {
			for range 2 { // the chunk table reaches this size
				push(n)
				pop(n)
			}
			held := make([]*Message, depth)
			grow := func() {
				for i := range held {
					held[i] = q.At(i)
				}
				push(n)
				for i, p := range held {
					if q.At(i) != p {
						t.Fatalf("growing the backlog by %d moved queued message %d", n, i)
					}
				}
			}
			if a, most := testing.AllocsPerRun(1, func() { grow(); pop(n) }), float64((n+511)/512+1); a > most {
				t.Errorf("a backlog grown by %d allocates %.0f times, want at most %.0f chunks", n, a, most)
			}
		}
	})
}

// TestBlockedSendAllocatesNothing: a sender that finds the ring full queues
// a recycled ticket, parks and is admitted when the receiver frees a slot —
// without allocating.
func TestBlockedSendAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	defer s.Shutdown()
	r := newRing(s, 2*(headerBytes+64))
	s.Spawn("tx", func(p *sim.Proc) {
		for i := uint64(0); ; i++ {
			r.Send(p, Message{Kind: 1, Size: 64, W: [7]uint64{i}})
		}
	})
	next := uint64(0)
	cycle := func() {
		if err := s.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		m, ok := r.TryRecv() // frees the slot the parked sender's ticket waits for
		if !ok || m.W[0] != next {
			t.Fatalf("received %+v, %v; want message %d", m, ok, next)
		}
		next++
	}
	cycle()
	waits := r.Stats().ReserveWaits
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("a blocked send allocates %.1f times, want 0", n)
	}
	if got := r.Stats().ReserveWaits - waits; got < 200 {
		t.Errorf("only %d of the sends blocked", got)
	}
}
