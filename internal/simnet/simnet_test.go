package simnet

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestPacketDelivery(t *testing.T) {
	s := sim.New(1)
	a := NewNIC("client", nil)
	b := NewNIC("server", nil)
	if _, err := Connect(s, a, b, LinkConfig{BitsPerSec: 1e9, Latency: 100 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	var got []Packet
	var at sim.Time
	b.SetRx(func(p Packet) { got = append(got, p); at = s.Now() })
	a.Send(Packet{DstHost: "server", Size: 1250, Payload: "hello"})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != "hello" || got[0].SrcHost != "client" {
		t.Fatalf("got %v", got)
	}
	// 1250 bytes at 1 Gb/s = 10us serialization + 100us propagation.
	if at != sim.Time(110*time.Microsecond) {
		t.Errorf("delivered at %v, want 110us", at)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := sim.New(1)
	a := NewNIC("a", nil)
	b := NewNIC("b", nil)
	if _, err := Connect(s, a, b, LinkConfig{BitsPerSec: 1e9, Latency: 0}); err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	n := 0
	b.SetRx(func(p Packet) { last = s.Now(); n++ })
	// 100 x 12500-byte frames at 1 Gb/s = 100us each = 10ms total.
	for i := 0; i < 100; i++ {
		a.Send(Packet{Size: 12500})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("delivered %d, want 100", n)
	}
	if last != sim.Time(10*time.Millisecond) {
		t.Errorf("last delivery at %v, want 10ms (1 Gb/s serialization)", last)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	a := NewNIC("a", nil)
	b := NewNIC("b", nil)
	l, err := Connect(s, a, b, LinkConfig{BitsPerSec: 1e9, Latency: 0, MaxQueue: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	b.SetRx(func(p Packet) { n++ })
	// Each frame takes 100us to serialize; only ~11 fit within the 1ms
	// queue bound, the rest are tail-dropped.
	for i := 0; i < 50; i++ {
		a.Send(Packet{Size: 12500})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n >= 50 {
		t.Errorf("no drops despite queue bound (delivered %d)", n)
	}
	if l.Stats(0).Drops == 0 {
		t.Error("drop counter is zero")
	}
	if l.Stats(0).Packets != int64(n) {
		t.Errorf("packet counter %d != delivered %d", l.Stats(0).Packets, n)
	}
}

func TestFullDuplexIndependentDirections(t *testing.T) {
	s := sim.New(1)
	a := NewNIC("a", nil)
	b := NewNIC("b", nil)
	if _, err := Connect(s, a, b, LinkConfig{BitsPerSec: 1e9, Latency: 0}); err != nil {
		t.Fatal(err)
	}
	var aAt, bAt sim.Time
	a.SetRx(func(p Packet) { aAt = s.Now() })
	b.SetRx(func(p Packet) { bAt = s.Now() })
	a.Send(Packet{Size: 12500})
	b.Send(Packet{Size: 12500})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if aAt != bAt || aAt != sim.Time(100*time.Microsecond) {
		t.Errorf("full duplex broken: a=%v b=%v", aAt, bAt)
	}
}

func TestNICDownWhileDriverUnloaded(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	p0, _ := m.NewPartition("p0", 0, 1, 2, 3)
	p1, _ := m.NewPartition("p1", 4, 5, 6, 7)
	k0, err := kernel.Boot(p0, kernel.Config{Name: "primary"})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := kernel.Boot(p1, kernel.Config{Name: "secondary"})
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice("eth0", 5*time.Second)
	server := NewNIC("server", dev)
	client := NewNIC("client", nil)
	if _, err := Connect(s, client, server, GigabitEthernet()); err != nil {
		t.Fatal(err)
	}
	received := 0
	server.SetRx(func(p Packet) { received++ })

	k0.Spawn("boot", func(tk *kernel.Task) {
		if err := tk.LoadDriver(dev); err != nil {
			t.Errorf("LoadDriver: %v", err)
		}
	})
	// Before the driver loads (t<5s) frames are dropped; after, received.
	s.Schedule(time.Second, func() { client.Send(Packet{Size: 100}) })
	s.Schedule(6*time.Second, func() { client.Send(Packet{Size: 100}) })

	// Primary dies at 7s; the device goes down with it until secondary
	// reloads it.
	s.Schedule(7*time.Second, func() {
		k0.Panic("injected", nil)
		k1.Spawn("failover", func(tk *kernel.Task) {
			if err := tk.LoadDriver(dev); err != nil {
				t.Errorf("takeover: %v", err)
			}
		})
	})
	s.Schedule(8*time.Second, func() { client.Send(Packet{Size: 100}) })  // during reload: dropped
	s.Schedule(13*time.Second, func() { client.Send(Packet{Size: 100}) }) // after reload: received
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 2 {
		t.Errorf("received %d frames, want 2 (one pre-failover, one post-reload)", received)
	}
}

func TestConnectErrors(t *testing.T) {
	s := sim.New(1)
	a := NewNIC("a", nil)
	b := NewNIC("b", nil)
	c := NewNIC("c", nil)
	if _, err := Connect(s, a, b, LinkConfig{BitsPerSec: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := Connect(s, a, c, LinkConfig{BitsPerSec: 1e9}); err == nil {
		t.Error("double-connect allowed")
	}
	if _, err := Connect(s, c, NewNIC("d", nil), LinkConfig{}); err == nil {
		t.Error("zero bandwidth allowed")
	}
	if a.Up() != true || c.Up() != false {
		t.Error("Up() wrong")
	}
}
