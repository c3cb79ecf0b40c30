package shm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func newRing(s *sim.Simulation, capBytes int64) *Ring {
	f := NewFabric(s, time.Microsecond)
	return f.NewRing("test", 0, capBytes)
}

func TestSendRecvFIFO(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.Send(p, Message{Kind: 1, W: [7]uint64{uint64(i)}, Size: 8})
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
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
}

func TestPropagationLatency(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 550*time.Nanosecond)
	r := f.NewRing("lat", 0, 1<<20)
	var recvAt sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, Message{Kind: 1, Size: 8})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		r.Recv(p)
		recvAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt != sim.Time(550*time.Nanosecond) {
		t.Errorf("received at %v, want 550ns", recvAt)
	}
}

func TestSenderBlocksWhenFull(t *testing.T) {
	s := sim.New(1)
	// Room for exactly two 64-byte-payload messages (64+64 header each).
	r := newRing(s, 256)
	var sent []sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.Send(p, Message{Kind: 1, Size: 64})
			sent = append(sent, p.Now())
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			r.Recv(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sent[0] != 0 || sent[1] != 0 {
		t.Errorf("first two sends blocked: %v", sent)
	}
	if sent[2] < sim.Time(time.Millisecond) {
		t.Errorf("third send completed at %v before receiver drained", sent[2])
	}
}

func TestTrySendFull(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 128)
	if !r.TrySend(Message{Kind: 1, Size: 64}) {
		t.Fatal("first TrySend failed")
	}
	if r.TrySend(Message{Kind: 1, Size: 64}) {
		t.Fatal("TrySend succeeded on full ring")
	}
	st := r.Stats()
	if st.Messages != 1 || st.Bytes != 128 {
		t.Errorf("stats = %+v, want 1 message / 128 bytes", st)
	}
}

func TestTryRecvEmpty(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	if _, ok := r.TryRecv(); ok {
		t.Error("TryRecv succeeded on empty ring")
	}
}

func TestRecvTimeout(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var gotMsg, timedOut bool
	s.Spawn("receiver", func(p *sim.Proc) {
		if _, ok := r.RecvTimeout(p, time.Millisecond); ok {
			t.Error("RecvTimeout got message from empty ring")
		}
		timedOut = true
		_, gotMsg = r.RecvTimeout(p, time.Hour)
	})
	s.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		r.Send(p, Message{Kind: 1, Size: 8})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut || !gotMsg {
		t.Errorf("timedOut=%v gotMsg=%v, want both true", timedOut, gotMsg)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	r1 := f.NewRing("a", 0, 1<<20)
	r2 := f.NewRing("b", 1, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r1.Send(p, Message{Kind: 1, Size: 64})
		}
		r2.Send(p, Message{Kind: 2, Size: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := f.Stats()
	if st.Messages != 6 {
		t.Errorf("Messages = %d, want 6", st.Messages)
	}
	wantBytes := int64(5*(64+64) + 100 + 64)
	if st.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
}

func TestCoherencyLossDropsOnlyInflight(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Millisecond) // slow propagation
	r := f.NewRing("x", 0, 1<<20)
	other := f.NewRing("y", 1, 1<<20)
	var received int
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, Message{Kind: 1, Size: 8}) // delivered before fault
		other.Send(p, Message{Kind: 1, Size: 8})
		p.Sleep(2 * time.Millisecond)
		r.Send(p, Message{Kind: 2, Size: 8}) // in flight at fault time
		r.Send(p, Message{Kind: 3, Size: 8})
	})
	s.Schedule(2500*time.Microsecond, func() {
		if n := f.DropInflight(0); n != 2 {
			t.Errorf("dropped %d, want 2", n)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for {
			if _, ok := r.RecvTimeout(p, 10*time.Millisecond); !ok {
				return
			}
			received++
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 1 {
		t.Errorf("received %d messages, want 1 (only the pre-fault one)", received)
	}
	if other.InFlight() != 0 || other.Len() != 1 {
		t.Error("fault on partition 0 affected partition 1's ring")
	}
	if r.Stats().Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", r.Stats().Dropped)
	}
}

func TestDrainAfterSenderDeath(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	r := f.NewRing("log", 0, 1<<20)
	g := s.NewGroup("primary")
	g.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r.Send(p, Message{Kind: i, Size: 8})
		}
		p.Sleep(time.Hour)
	})
	s.Schedule(time.Millisecond, func() { g.Kill() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Messages outlive the sending kernel: they sit in shared memory.
	msgs := r.Drain()
	if len(msgs) != 4 {
		t.Fatalf("drained %d messages, want 4", len(msgs))
	}
	if r.Len() != 0 {
		t.Error("ring not empty after Drain")
	}
}

// TestRingQuick streams random traffic through a ring and checks every
// sender's messages arrive in order, counted once. Two inputs: one sender
// on a small ring, which forces it to block; and eight producers sending
// batches of up to eight payloads into an ample ring, where the
// reservation path admits every claim — no sender may ever park.
func TestRingQuick(t *testing.T) {
	for _, in := range []struct {
		name           string
		capBytes       int64
		senders, batch int
		mustNeverBlock bool
	}{
		{"small-ring", 512, 1, 1, false},
		{"ample-ring-8-producers", 1 << 20, 8, 8, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			f := func(seed int64, n uint8) bool {
				count := int(n%64) + 1
				s := sim.New(seed)
				rng := rand.New(rand.NewSource(seed))
				r := newRing(s, in.capBytes)
				sends := 0
				for j := 0; j < in.senders; j++ {
					s.Spawn("sender", func(p *sim.Proc) {
						for i := 0; i < count; {
							batch := make([]Message, min(1+rng.Intn(in.batch), count-i))
							for k := range batch {
								batch[k] = Message{Kind: 1, W: [7]uint64{uint64(i), uint64(j)}, Size: rng.Intn(100)}
								i++
							}
							if len(batch) == 1 {
								r.Send(p, batch[0])
							} else {
								r.SendBatch(p, batch)
							}
							sends++
							if rng.Intn(3) == 0 {
								p.Sleep(time.Duration(rng.Intn(1000)) * time.Nanosecond)
							}
						}
					})
				}
				next := make([]int, in.senders) // each sender's next expected message
				ordered := true
				s.Spawn("receiver", func(p *sim.Proc) {
					for i := 0; i < in.senders*count; i++ {
						m := r.Recv(p)
						ordered = ordered && int(m.W[0]) == next[m.W[1]]
						next[m.W[1]]++
						if rng.Intn(3) == 0 {
							p.Sleep(time.Duration(rng.Intn(1000)) * time.Nanosecond)
						}
					}
				})
				if err := s.Run(); err != nil || !ordered {
					return false
				}
				for _, got := range next {
					if got != count {
						return false
					}
				}
				st := r.Stats()
				if in.mustNeverBlock && (st.ReserveWaits != 0 || st.SendWaitNs != 0) {
					t.Logf("%d senders parked %d times for %dns on an ample ring", in.senders, st.ReserveWaits, st.SendWaitNs)
					return false
				}
				return st.Messages == int64(sends) && st.Payloads == int64(in.senders*count)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSendBatchSharesHeader(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		batch := make([]Message, 8)
		for i := range batch {
			batch[i] = Message{Kind: 1, W: [7]uint64{uint64(i)}, Size: 64}
		}
		r.SendBatch(p, batch)
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			got = append(got, int(r.Recv(p).W[0]))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want batch members in order", got)
		}
	}
	st := r.Stats()
	if st.Messages != 1 || st.Payloads != 8 || st.Batches != 1 {
		t.Errorf("stats = %+v, want 1 transfer / 8 payloads / 1 batch", st)
	}
	if want := int64(8*64 + 64); st.Bytes != want {
		t.Errorf("Bytes = %d, want %d (one shared header)", st.Bytes, want)
	}
	if r.Delivered() != 8 {
		t.Errorf("Delivered = %d, want 8 (per payload)", r.Delivered())
	}
	if r.Free() != 1<<20 {
		t.Errorf("Free = %d after draining batch, want full capacity", r.Free())
	}
}

func TestSendBatchOneDeliveryEvent(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Millisecond)
	r := f.NewRing("x", 0, 1<<20)
	var fires int
	r.OnDelivered(func() { fires++ })
	var recvAt []sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		r.SendBatch(p, []Message{{Kind: 1, Size: 8}, {Kind: 2, Size: 8}, {Kind: 3, Size: 8}})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.Recv(p)
			recvAt = append(recvAt, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fires != 1 {
		t.Errorf("OnDelivered fired %d times, want 1 (one event per batch)", fires)
	}
	for _, at := range recvAt {
		if at != sim.Time(time.Millisecond) {
			t.Errorf("batch members delivered at %v, want all at 1ms", recvAt)
			break
		}
	}
}

func TestRecvBatchDrainsDelivery(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	var first, second []Message
	s.Spawn("sender", func(p *sim.Proc) {
		r.SendBatch(p, []Message{{W: [7]uint64{uint64(0)}, Size: 8}, {W: [7]uint64{uint64(1)}, Size: 8}, {W: [7]uint64{uint64(2)}, Size: 8}})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		first = r.RecvBatchInto(p, nil, 2)
		second = r.RecvBatchInto(p, nil, 0) // 0 = no cap
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(first) != 2 || len(second) != 1 {
		t.Fatalf("RecvBatch sizes = %d,%d, want 2,1", len(first), len(second))
	}
	if first[0].W[0] != 0 || first[1].W[0] != 1 || second[0].W[0] != 2 {
		t.Error("RecvBatch broke FIFO order")
	}
}

func TestTrySendBatchFull(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 256)
	if !r.TrySendBatch([]Message{{Size: 64}, {Size: 64}}) {
		t.Fatal("batch of 192 bytes rejected from empty 256-byte ring")
	}
	if r.TrySendBatch([]Message{{Size: 32}, {Size: 32}}) {
		t.Fatal("TrySendBatch admitted a batch that does not fit")
	}
	if !r.TrySendBatch(nil) {
		t.Fatal("empty batch should trivially succeed")
	}
	if st := r.Stats(); st.Messages != 1 || st.Payloads != 2 {
		t.Errorf("stats = %+v, want exactly the first batch", st)
	}
}

// Regression test for the coherency-fault hang: a sender blocked on a ring
// whose space is entirely consumed by in-flight messages must be woken when
// DropInflight frees those bytes, or it parks forever.
func TestDropInflightWakesBlockedSender(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 10*time.Millisecond) // slow: messages stay in flight
	r := f.NewRing("x", 0, 256)
	var sentAt sim.Time
	done := false
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, Message{Kind: 1, Size: 64}) // fills 128 bytes
		r.Send(p, Message{Kind: 2, Size: 64}) // fills the rest
		r.Send(p, Message{Kind: 3, Size: 64}) // blocks: ring full of in-flight bytes
		sentAt = p.Now()
		done = true
	})
	s.Schedule(time.Millisecond, func() { f.DropInflight(0) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("sender still blocked after DropInflight freed the ring")
	}
	if sentAt != sim.Time(time.Millisecond) {
		t.Errorf("third send completed at %v, want 1ms (the fault time)", sentAt)
	}
}

// Regression test for single-wake under mixed sizes: one large receive
// frees enough space for several small blocked senders; all of them must
// be admitted, not just the first.
func TestPopWakesAllFittingSenders(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 320) // fits one 256-byte-payload message (256+64)
	var sentA, sentB bool
	s.Spawn("big", func(p *sim.Proc) {
		r.Send(p, Message{Kind: 0, Size: 256}) // fills the ring
	})
	s.Spawn("smallA", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // queue up behind the full ring
		r.Send(p, Message{Kind: 1, Size: 32})
		sentA = true
	})
	s.Spawn("smallB", func(p *sim.Proc) {
		p.Sleep(20 * time.Microsecond)
		r.Send(p, Message{Kind: 2, Size: 32})
		sentB = true
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m := r.Recv(p) // frees 320 bytes: room for both small messages
		if m.Kind != 0 {
			t.Errorf("first receive Kind=%d, want 0", m.Kind)
		}
		p.Sleep(time.Hour) // do not receive again; both sends must already fit
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sentA || !sentB {
		t.Fatalf("sentA=%v sentB=%v, want both admitted by the single large receive", sentA, sentB)
	}
}

func TestDropInflightDropsWholeBatch(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Millisecond)
	r := f.NewRing("x", 0, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		r.SendBatch(p, []Message{{Size: 8}, {Size: 8}, {Size: 8}})
	})
	s.Schedule(100*time.Microsecond, func() {
		if n := f.DropInflight(0); n != 3 {
			t.Errorf("DropInflight = %d payloads, want 3", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Stats().Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", r.Stats().Dropped)
	}
	if r.Len() != 0 || r.Free() != 1<<20 {
		t.Errorf("Len=%d Free=%d after dropping the batch", r.Len(), r.Free())
	}
}

func TestHighWaterMarkTracksPeakOccupancy(t *testing.T) {
	s := sim.New(1)
	r := newRing(s, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, Message{Kind: 1, Size: 100})
		r.Send(p, Message{Kind: 1, Size: 100})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		r.Recv(p)
		r.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(2 * (100 + headerBytes))
	if hw := r.Stats().HighWaterBytes; hw != want {
		t.Errorf("HighWaterBytes = %d, want %d", hw, want)
	}
	if r.Stats().HighWaterBytes <= 0 {
		t.Error("high-water mark not tracked")
	}
}

func TestPerRingStatsAndAggregateHighWater(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, time.Microsecond)
	a := f.NewRing("a", 0, 1<<20)
	b := f.NewRing("b", 1, 1<<20)
	s.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, Message{Kind: 1, Size: 500})
		b.Send(p, Message{Kind: 1, Size: 50})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		a.Recv(p)
		b.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	per := f.PerRing()
	if len(per) != 2 || per[0].Name != "a" || per[1].Name != "b" {
		t.Fatalf("PerRing = %+v", per)
	}
	if per[0].Src != 0 || per[1].Src != 1 {
		t.Errorf("PerRing srcs = %d,%d", per[0].Src, per[1].Src)
	}
	if per[0].Payloads != 1 || per[1].Payloads != 1 {
		t.Errorf("per-ring payloads = %d,%d, want 1,1", per[0].Payloads, per[1].Payloads)
	}
	// Aggregate high water is the max of the per-ring peaks, not their sum.
	if got, want := f.Stats().HighWaterBytes, int64(500+headerBytes); got != want {
		t.Errorf("fabric HighWaterBytes = %d, want %d", got, want)
	}
	if len(f.Rings()) != 2 {
		t.Errorf("Rings() returned %d rings", len(f.Rings()))
	}
}

func TestInstrumentedRingEmitsDeliveryEvents(t *testing.T) {
	s := sim.New(1)
	tr := obs.New(s, obs.Config{Trace: true})
	r := newRing(s, 1<<20)
	r.Instrument(tr.Scope("shm/test"))
	s.Spawn("sender", func(p *sim.Proc) {
		r.SendBatch(p, []Message{{Kind: 1, Size: 10}, {Kind: 1, Size: 10}})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		r.RecvBatchInto(p, nil, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var delivers, depths int
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.RingDeliver:
			delivers++
			if e.Seq != 2 || e.Arg != 2 {
				t.Errorf("deliver event seq=%d arg=%d, want 2,2", e.Seq, e.Arg)
			}
		case obs.RingDepth:
			depths++
		}
	}
	if delivers != 1 {
		t.Errorf("saw %d deliver events, want 1", delivers)
	}
	// One depth sample at send, one per popped message.
	if depths != 3 {
		t.Errorf("saw %d depth samples, want 3", depths)
	}
}
