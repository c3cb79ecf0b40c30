package shm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestReserveCommitDelivers exercises the zero-copy path directly:
// reserve, write in place, commit once — one transfer, one header, FIFO.
func TestReserveCommitDelivers(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		sp := r.Reserve(p, 3, 3*64)
		for i := 0; i < 3; i++ {
			if !sp.Put(Message{Kind: 1, W: [7]uint64{uint64(i)}, Size: 64}) {
				t.Errorf("Put %d refused inside reservation", i)
			}
		}
		sp.Commit()
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, int(r.Recv(p).W[0]))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want FIFO order", got)
		}
	}
	st := r.Stats()
	if st.Messages != 1 || st.Payloads != 3 || st.Batches != 1 {
		t.Errorf("stats = %+v, want one vectored transfer of 3 payloads", st)
	}
	if want := int64(3*64 + headerBytes); st.Bytes != want {
		t.Errorf("Bytes = %d, want %d (one shared header)", st.Bytes, want)
	}
}

// TestCommitShrinksUnusedReservation: committing a span that used less
// than its byte budget returns the unused tail to the ring immediately.
func TestCommitShrinksUnusedReservation(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<10)
	s.Spawn("sender", func(p *sim.Proc) {
		sp := r.Reserve(p, 4, 512)
		sp.Put(Message{Kind: 1, Size: 32})
		sp.Commit()
		if free := r.Free(); free != 1<<10-(32+headerBytes) {
			t.Errorf("Free = %d after shrink, want %d", free, 1<<10-(32+headerBytes))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEmptyCommitIsAbort: committing an empty span transfers nothing —
// no propagation event, no header, capacity fully returned. This is the
// ring-level guarantee that makes a flush deadline racing an
// output-commit force-flush harmless.
func TestEmptyCommitIsAbort(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		sp := r.Reserve(p, 8, 512)
		sp.Commit()
		if sp.Open() {
			t.Error("span still open after empty Commit")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := r.Stats()
	if st.Messages != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v, want no transfer from an empty commit", st)
	}
	if r.Free() != 1<<20 || r.OpenSpans() != 0 {
		t.Errorf("Free=%d OpenSpans=%d, want full capacity and no spans", r.Free(), r.OpenSpans())
	}
}

// TestOpenSpanBlocksLaterSpans: reservation order is publication order.
// A committed span parked behind an open one stays invisible until the
// hole commits; then both deliver in claim order.
func TestOpenSpanBlocksLaterSpans(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		a := r.Reserve(p, 1, 8)
		b := r.Reserve(p, 1, 8)
		b.Put(Message{Kind: 2, W: [7]uint64{uint64(2)}, Size: 8})
		b.Commit()
		p.Sleep(time.Millisecond) // far past the propagation latency
		if r.Delivered() != 0 {
			t.Errorf("Delivered = %d while the head span is open, want 0", r.Delivered())
		}
		a.Put(Message{Kind: 1, W: [7]uint64{uint64(1)}, Size: 8})
		a.Commit()
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, int(r.Recv(p).W[0]))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("received %v, want claim order 1,2", got)
	}
}

// TestAbortUnblocksQueue: aborting the head span releases its capacity
// and lets committed spans behind it publish.
func TestAbortUnblocksQueue(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var got Message
	s.Spawn("sender", func(p *sim.Proc) {
		a := r.Reserve(p, 1, 8)
		b := r.Reserve(p, 1, 8)
		b.Put(Message{Kind: 7, Size: 8})
		b.Commit()
		a.Abort()
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		got = r.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Kind != 7 {
		t.Errorf("received Kind=%d, want the committed span's 7", got.Kind)
	}
	if r.OpenSpans() != 0 || r.Free() != 1<<20 {
		t.Errorf("OpenSpans=%d Free=%d, want no spans and full capacity after receive", r.OpenSpans(), r.Free())
	}
}

// TestDropInflightDuringOpenSpan: a coherency fault while a span is
// reserved but uncommitted loses the payloads already written in place
// (the replayer sees them as a log gap) and frees the reservation so
// the ring is not jammed.
func TestDropInflightDuringOpenSpan(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 10*time.Millisecond)
	r := f.NewRing("x", 0, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		sp := r.Reserve(p, 4, 256)
		defer sp.Abort() // post-fault no-op; settles the span on every path
		sp.Put(Message{Kind: 1, Size: 32})
		sp.Put(Message{Kind: 2, Size: 32})
		p.Sleep(5 * time.Millisecond) // fault fires while the span is open
		if sp.Open() {
			t.Error("span still open after the coherency fault")
		}
		// The span is dead: Commit after the fault must transfer nothing.
		sp.Commit()
	})
	s.Schedule(time.Millisecond, func() {
		if n := f.DropInflight(0); n != 2 {
			t.Errorf("DropInflight = %d payloads, want the 2 written into the open span", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Stats().Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", r.Stats().Dropped)
	}
	if r.Stats().Messages != 0 {
		t.Errorf("Messages = %d, want 0 (nothing ever published)", r.Stats().Messages)
	}
	if r.Free() != 1<<20 || r.OpenSpans() != 0 {
		t.Errorf("Free=%d OpenSpans=%d, want reservation fully released", r.Free(), r.OpenSpans())
	}
}

// TestDropInflightWakesQueuedReservation: the fault frees reserved
// capacity, so a sender parked in Reserve behind a doomed open span must
// be admitted — the open-span variant of the blocked-sender wake-up
// regression.
func TestDropInflightWakesQueuedReservation(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 10*time.Millisecond)
	r := f.NewRing("x", 0, 256)
	done := false
	s.Spawn("holder", func(p *sim.Proc) {
		sp := r.Reserve(p, 1, 128) // 192 of 256 bytes
		defer sp.Abort()
		p.Sleep(time.Hour) // never commits: the fault must free it
	})
	s.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		sp := r.Reserve(p, 1, 128) // does not fit until the fault
		sp.Put(Message{Kind: 1, Size: 128})
		sp.Commit()
		done = true
	})
	s.Schedule(time.Millisecond, func() { f.DropInflight(0) })
	if err := s.RunUntil(sim.Time(2 * time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("queued reservation still parked after DropInflight freed the open span")
	}
	if r.Stats().ReserveWaits != 1 {
		t.Errorf("ReserveWaits = %d, want 1", r.Stats().ReserveWaits)
	}
}

// TestChaosDupOfCommittedSpan: a Dup verdict at commit enqueues extra
// copies of the whole span, each its own transfer with its own bytes.
func TestChaosDupOfCommittedSpan(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	r.SetChaosHook(func(msgs []Message) ChaosVerdict { return ChaosVerdict{Dup: 2} })
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		sp := r.Reserve(p, 2, 16)
		sp.Put(Message{Kind: 1, W: [7]uint64{uint64(1)}, Size: 8})
		sp.Put(Message{Kind: 2, W: [7]uint64{uint64(2)}, Size: 8})
		sp.Commit()
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			got = append(got, int(r.Recv(p).W[0]))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 1, 2, 1, 2}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("received %v, want three in-order copies %v", got, want)
		}
	}
	st := r.Stats()
	if st.Messages != 3 || st.Payloads != 6 {
		t.Errorf("stats = %+v, want 3 transfers / 6 payloads", st)
	}
	if r.Free() != 1<<20 {
		t.Errorf("Free = %d after draining dups, want full capacity (dup copies release their own bytes)", r.Free())
	}
}

// TestChaosDelayOfCommittedSpan: injected delay slows a span but cannot
// reorder the mailbox — later spans are clamped behind the delayed one.
func TestChaosDelayOfCommittedSpan(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	r := f.NewRing("x", 0, 1<<20)
	first := true
	r.SetChaosHook(func(msgs []Message) ChaosVerdict {
		if first {
			first = false
			return ChaosVerdict{Delay: time.Millisecond}
		}
		return ChaosVerdict{}
	})
	var order []int
	var at []sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 1; i <= 2; i++ {
			sp := r.Reserve(p, 1, 8)
			sp.Put(Message{Kind: i, W: [7]uint64{uint64(i)}, Size: 8})
			sp.Commit()
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, int(r.Recv(p).W[0]))
			at = append(at, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("received %v, want FIFO despite the delayed first span", order)
	}
	if at[0] < sim.Time(time.Millisecond) {
		t.Errorf("delayed span arrived at %v, want >= 1ms", at[0])
	}
	if at[1] < at[0] {
		t.Errorf("second span at %v overtook the delayed first at %v", at[1], at[0])
	}
}

// TestDrainMidSpan: a promotion draining a ring while a dead sender left
// a span open must release the hole (its contents were never published —
// nothing client-visible is lost) and let committed spans behind it
// publish normally.
func TestDrainMidSpan(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	r := f.NewRing("log", 0, 1<<20)
	var drained []Message
	var got Message
	s.Spawn("dying-sender", func(p *sim.Proc) {
		a := r.Reserve(p, 2, 64)
		defer a.Abort()
		a.Put(Message{Kind: 1, Size: 8}) // written, never committed
		b := r.Reserve(p, 1, 8)
		b.Put(Message{Kind: 2, Size: 8})
		b.Commit() // parked behind the hole
		p.Sleep(time.Hour)
	})
	s.Schedule(time.Millisecond, func() {
		drained = r.Drain()
		if r.OpenSpans() != 0 {
			t.Errorf("OpenSpans = %d after Drain, want 0", r.OpenSpans())
		}
	})
	s.Spawn("new-primary", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		var ok bool
		got, ok = r.RecvTimeout(p, time.Second)
		if !ok {
			t.Error("committed span parked behind the drained hole never delivered")
		}
	})
	if err := s.RunUntil(sim.Time(2 * time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(drained) != 0 {
		t.Errorf("Drain returned %d messages, want 0 (nothing had delivered yet)", len(drained))
	}
	if got.Kind != 2 {
		t.Errorf("promoted side received Kind=%d, want the committed span's 2", got.Kind)
	}
}

// TestTryReserveRefusesToJumpQueue: a non-blocking claim that fits must
// still fail while earlier reservations wait — admitting it would
// publish ahead of spans reserved before it.
func TestTryReserveRefusesToJumpQueue(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 10*time.Millisecond) // slow: bytes stay occupied
	r := f.NewRing("x", 0, 256)
	s.Spawn("filler", func(p *sim.Proc) {
		sp := r.Reserve(p, 1, 64) // 128 of 256 bytes
		sp.Put(Message{Kind: 1, Size: 64})
		sp.Commit()
	})
	s.Spawn("blocked", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		sp := r.Reserve(p, 1, 128) // 192 > 128 free: queues
		sp.Put(Message{Kind: 2, Size: 128})
		sp.Commit()
	})
	s.Spawn("jumper", func(p *sim.Proc) {
		p.Sleep(2 * time.Microsecond)
		if sp := r.TryReserve(1, 0); sp.Open() {
			sp.Abort()
			t.Error("TryReserve jumped a non-empty claim queue")
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			r.Recv(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestKilledReserverUnjamsQueue: a process killed while parked in
// Reserve must have its ticket removed, or the claim queue stalls every
// later sender behind a dead process.
func TestKilledReserverUnjamsQueue(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	r := f.NewRing("x", 0, 256)
	g := s.NewGroup("doomed")
	var survived bool
	s.Spawn("holder", func(p *sim.Proc) {
		sp := r.Reserve(p, 1, 128) // 192 of 256
		sp.Put(Message{Kind: 1, Size: 128})
		p.Sleep(10 * time.Millisecond)
		sp.Commit()
	})
	g.Spawn("victim", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		sp := r.Reserve(p, 1, 128) // queues behind holder, then dies parked
		sp.Abort()                 // unreachable: killed while waiting
	})
	s.Spawn("survivor", func(p *sim.Proc) {
		p.Sleep(2 * time.Microsecond)
		sp := r.Reserve(p, 1, 32) // queued third; must not wait on the corpse
		sp.Put(Message{Kind: 3, Size: 32})
		sp.Commit()
		survived = true
	})
	s.Schedule(time.Millisecond, func() { g.Kill() })
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			r.Recv(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !survived {
		t.Fatal("sender queued behind a killed reservation never admitted")
	}
}
