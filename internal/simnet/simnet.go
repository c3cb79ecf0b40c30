// Package simnet models the physical network of the paper's evaluation
// setup (§4): a client machine connected to the server machine through a
// 1 Gb/s Ethernet link. It provides NICs bound to kernel devices (so driver
// reload at failover makes the NIC unavailable for the reload duration,
// §4.4), and point-to-point links with bandwidth, propagation latency, and
// a drop-tail queue.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Packet is one frame on the wire. Payload is opaque to the network layer
// (the TCP stack puts its segments there); Size is the frame's bytes on the
// wire, used for serialization delay and accounting.
type Packet struct {
	SrcHost string
	DstHost string
	Size    int
	Payload any
}

// LinkStats counts traffic on one direction of a link.
type LinkStats struct {
	Packets int64
	Bytes   int64
	Drops   int64
}

// NIC is a network interface. Its availability follows its kernel device:
// while the device's driver is not loaded (its owner dead, or a failover
// reload under way), received frames are dropped on the floor.
type NIC struct {
	host string
	dev  *kernel.Device
	link *Link
	end  int // which end of the link this NIC is
	rx   func(Packet)
}

// NewNIC creates a NIC for the given host name, backed by the given device.
// A nil device models an always-available interface (the client machine's
// NIC, which is outside the replicated system).
func NewNIC(host string, dev *kernel.Device) *NIC {
	return &NIC{host: host, dev: dev}
}

// SetRx installs the receive handler (the network stack's entry point).
// Installing a handler replaces the previous one — exactly what happens
// when the failover kernel re-attaches the device to its own stack.
func (n *NIC) SetRx(fn func(Packet)) { n.rx = fn }

// Up reports whether the NIC can send and receive.
func (n *NIC) Up() bool {
	return n.link != nil && (n.dev == nil || n.dev.Loaded())
}

// Send transmits a packet and reports whether the link took it. A frame
// sent while the NIC is down, or into a full transmit queue, is dropped:
// the network keeps nothing of it, so a sender that pools its payloads may
// reuse this one.
func (n *NIC) Send(p Packet) bool {
	if n.link != nil {
		n.link.sim.Guard("simnet transmit")
	}
	if !n.Up() {
		if n.link != nil {
			n.link.dirs[n.end].stats.Drops++
		}
		return false
	}
	p.SrcHost = n.host
	return n.link.transmit(n.end, p)
}

func (n *NIC) receive(p Packet) {
	if !n.Up() || n.rx == nil {
		if n.link != nil {
			n.link.dirs[1-n.end].stats.Drops++
		}
		return
	}
	n.rx(p)
}

// direction is one direction of a full-duplex link.
type direction struct {
	nextFree sim.Time // when the transmitter finishes its current backlog
	stats    LinkStats
	spare    []*frame // arrived frames, reused by transmit
}

// frame is one packet propagating along a direction. Every packet arms its
// own event at transmit, so its place in the event order is its own; only
// the record is reused once the packet has arrived.
type frame struct {
	dir *direction
	dst *NIC
	p   Packet
	ev  sim.Event
}

func (f *frame) arrive() {
	p := f.p
	f.p = Packet{}
	f.dir.spare = append(f.dir.spare, f)
	f.dst.receive(p)
}

// Link is a full-duplex point-to-point link.
type Link struct {
	sim        *sim.Simulation
	nics       [2]*NIC
	bitsPerSec int64
	latency    time.Duration
	maxQueue   time.Duration // drop frames whose queueing delay would exceed this
	dirs       [2]*direction
}

// LinkConfig configures a link.
type LinkConfig struct {
	// BitsPerSec is the link bandwidth (1e9 for the paper's 1 Gb/s link).
	BitsPerSec int64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// MaxQueue bounds the transmit queue in time; zero means 50 ms.
	MaxQueue time.Duration
}

// GigabitEthernet returns the paper's client-server link: 1 Gb/s with a
// typical LAN propagation delay.
func GigabitEthernet() LinkConfig {
	return LinkConfig{BitsPerSec: 1e9, Latency: 100 * time.Microsecond}
}

// LAN135us returns a link with the 135 us message propagation delay
// Guerraoui et al. measured in a LAN (§1), for the intra- versus
// inter-machine comparison benchmark.
func LAN135us() LinkConfig {
	return LinkConfig{BitsPerSec: 1e9, Latency: 135 * time.Microsecond}
}

// Connect wires two NICs with a link.
func Connect(s *sim.Simulation, a, b *NIC, cfg LinkConfig) (*Link, error) {
	if a.link != nil || b.link != nil {
		return nil, fmt.Errorf("simnet: NIC already connected")
	}
	if cfg.BitsPerSec <= 0 {
		return nil, fmt.Errorf("simnet: bad bandwidth %d", cfg.BitsPerSec)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 50 * time.Millisecond
	}
	l := &Link{
		sim:        s,
		nics:       [2]*NIC{a, b},
		bitsPerSec: cfg.BitsPerSec,
		latency:    cfg.Latency,
		maxQueue:   cfg.MaxQueue,
		dirs:       [2]*direction{{}, {}},
	}
	a.link, a.end = l, 0
	b.link, b.end = l, 1
	return l, nil
}

// Stats returns the traffic counters for the direction transmitted by the
// given end (0 or 1).
func (l *Link) Stats(end int) LinkStats { return l.dirs[end].stats }

func (l *Link) serialization(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / l.bitsPerSec)
}

func (l *Link) transmit(end int, p Packet) bool {
	d := l.dirs[end]
	now := l.sim.Now()
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	if start.Sub(now) > l.maxQueue {
		d.stats.Drops++
		return false
	}
	txDone := start.Add(l.serialization(p.Size))
	d.nextFree = txDone
	d.stats.Packets++
	d.stats.Bytes += int64(p.Size)
	var f *frame
	if n := len(d.spare); n > 0 {
		f, d.spare = d.spare[n-1], d.spare[:n-1]
	} else {
		f = &frame{dir: d, dst: l.nics[1-end]}
		f.ev.Init(l.sim.Root(), f.arrive)
	}
	f.p = p
	f.ev.Reset(txDone.Add(l.latency).Sub(now))
	return true
}
