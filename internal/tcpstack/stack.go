// Package tcpstack implements the kernel TCP stack that FT-Linux
// replicates (§3.4): a real TCP state machine — three-way handshake,
// sliding-window data transfer with retransmission and zero-window
// probing, and orderly teardown — over the simulated network.
//
// The stack exposes the two interposition points the paper uses:
//
//   - a Netfilter-style ingress hook, invoked on every segment just before
//     it enters the TCP layer;
//   - an EgressGate, invoked on every segment just before it would reach
//     the IP layer, which may delay transmission — this is where the
//     replication layer implements output commit (§3.5).
//
// It also supports constructing connections in an arbitrary protocol state
// (Restore), which is how the failover path brings the secondary's stack
// to a state indistinguishable from the last externally visible state of
// the primary's stack.
package tcpstack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/simnet"
	"repro/internal/streambuf"
)

// Stack errors.
var (
	ErrClosed       = errors.New("tcpstack: connection closed")
	ErrReset        = errors.New("tcpstack: connection reset by peer")
	ErrTimeout      = errors.New("tcpstack: connection timed out")
	ErrPortInUse    = errors.New("tcpstack: port in use")
	ErrInterposed   = errors.New("tcpstack: socket is interposed (secondary replica)")
	errProtoViolate = errors.New("tcpstack: protocol violation")

	// ErrPortsExhausted is returned by Connect when every ephemeral port
	// has a listener or a connection (TIME_WAIT included) on it.
	ErrPortsExhausted = errors.New("tcpstack: ephemeral ports exhausted")
)

// EOF is io.EOF re-exported so callers need not import io for the
// end-of-stream condition.
var EOF = errors.New("EOF")

// Params is the stack's tuning.
type Params struct {
	// MSS is the maximum segment payload. The bulk-transfer experiments
	// use a large MSS to model segmentation offload (GSO).
	MSS int
	// SendBuf / RecvBuf bound the per-connection buffers; the advertised
	// window is the free receive buffer.
	SendBuf int
	RecvBuf int
	// RTOMin is the initial retransmission timeout; it backs off
	// exponentially to RTOMax.
	RTOMin time.Duration
	RTOMax time.Duration
	// TimeWait is the linger time in TIME_WAIT before the connection is
	// reaped (shortened from 2*MSL for simulation efficiency).
	TimeWait time.Duration
	// SynRetries bounds connection-establishment retransmissions.
	SynRetries int
	// SegmentCPU is the CPU cost charged to a task per segment it causes
	// to be processed (send or receive path).
	SegmentCPU time.Duration
}

// DefaultParams returns production-like defaults.
func DefaultParams() Params {
	return Params{
		MSS:        1448,
		SendBuf:    256 << 10,
		RecvBuf:    256 << 10,
		RTOMin:     200 * time.Millisecond,
		RTOMax:     time.Second,
		TimeWait:   500 * time.Millisecond,
		SynRetries: 6,
		SegmentCPU: 2 * time.Microsecond,
	}
}

// EgressGate intercepts every outgoing segment before the IP layer. The
// gate ends by calling seg.Send, which puts the segment on the wire: at once
// (DirectGate) or after holding it until the output is stable (the
// replication layer's output-commit gate). Gates must send segments of a
// connection in the order they were submitted, and must not touch a segment
// after sending it.
type EgressGate interface {
	Transmit(seg *Segment)
}

// DirectGate transmits immediately — the unreplicated baseline.
type DirectGate struct{}

var _ EgressGate = DirectGate{}

// Transmit sends the segment at once.
func (DirectGate) Transmit(seg *Segment) { seg.Send() }

// Stack is one kernel's TCP stack.
type Stack struct {
	kern    *kernel.Kernel
	host    string
	nic     *simnet.NIC
	params  Params
	ingress func(*Segment) bool
	egress  EgressGate

	listeners map[int]*Listener
	conns     map[connKey]*Conn
	portConns map[int]int // connections per local port, so allocPort need not scan conns
	nextISS   uint64

	// Free lists (DESIGN.md §20): segment records, and the backing arrays
	// of the connections' send and receive windows. They belong to this
	// stack, so simulations sharing a process share nothing.
	segFree []*Segment
	bufs    streambuf.Pool

	// Ephemeral ports are handed out round-robin from [portLo, portHi].
	portLo, portHi, nextPort int

	// SegsIn/SegsOut count segments processed, for diagnostics.
	SegsIn, SegsOut int64

	// Event callbacks for the TCP-stack replication component (§3.4).
	// All are optional and must not block (they run in segment-processing
	// context).

	// OnEstablished fires when a connection reaches ESTABLISHED.
	OnEstablished func(*Conn)
	// OnDataIn fires when in-order input bytes are accepted into the
	// receive buffer (and will therefore be acknowledged to the peer).
	OnDataIn func(*Conn, []byte)
	// OnAckIn fires when the peer acknowledges output, with the new count
	// of acknowledged output-stream bytes.
	OnAckIn func(*Conn, uint64)
	// OnPeerFin fires when the peer's FIN is accepted.
	OnPeerFin func(*Conn)
	// OnReaped fires when the connection is removed from the stack.
	OnReaped func(*Conn)
}

// New creates a stack for the given kernel and host name.
func New(k *kernel.Kernel, host string, params Params) *Stack {
	if params.MSS <= 0 {
		params = DefaultParams()
	}
	return &Stack{
		kern:      k,
		host:      host,
		params:    params,
		egress:    DirectGate{},
		listeners: make(map[int]*Listener),
		conns:     make(map[connKey]*Conn),
		portConns: make(map[int]int),
		portLo:    32768,
		portHi:    60999,
		nextPort:  32768,
		nextISS:   1 << 20,
	}
}

// Kernel returns the owning kernel.
func (s *Stack) Kernel() *kernel.Kernel { return s.kern }

// Host returns the stack's host name.
func (s *Stack) Host() string { return s.host }

// Params returns the stack's tuning.
func (s *Stack) Params() Params { return s.params }

// SetIngress installs the Netfilter-style hook called on every segment
// before the TCP layer; returning false steals the segment.
func (s *Stack) SetIngress(fn func(*Segment) bool) { s.ingress = fn }

// SetEgress installs the gate called on every segment before the IP layer.
func (s *Stack) SetEgress(g EgressGate) { s.egress = g }

// Attach binds the stack to a NIC, becoming its receive handler.
func (s *Stack) Attach(nic *simnet.NIC) {
	s.nic = nic
	nic.SetRx(s.rxPacket)
}

// NIC returns the attached NIC, or nil.
func (s *Stack) NIC() *simnet.NIC { return s.nic }

// Conns reports the number of live connections.
func (s *Stack) Conns() int { return len(s.conns) }

func (s *Stack) rxPacket(p simnet.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	s.SegsIn++
	s.input(seg)
	seg.release()
}

// input runs one received segment through the ingress hook and the TCP
// layer. Nothing it calls keeps the segment: rxPacket releases it next.
func (s *Stack) input(seg *Segment) {
	if s.ingress != nil && !s.ingress(seg) {
		return
	}
	key := connKey{localPort: seg.Dst.Port, remoteHost: seg.Src.Host, remotePort: seg.Src.Port}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(seg)
		return
	}
	if l, ok := s.listeners[seg.Dst.Port]; ok && seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		l.handleSYN(seg)
		return
	}
	// No socket: answer with RST (unless this already is one).
	if !seg.Flags.Has(FlagRST) {
		rst := s.newSegment()
		rst.Src = Addr{Host: s.host, Port: seg.Dst.Port}
		rst.Dst = seg.Src
		rst.Seq = seg.Ack
		rst.Ack = seg.Seq + uint64(len(seg.Data))
		rst.Flags = FlagRST | FlagACK
		s.transmit(rst)
	}
}

// transmit pushes a segment through the egress gate onto the wire.
func (s *Stack) transmit(seg *Segment) {
	s.SegsOut++
	s.egress.Transmit(seg)
}

// addConn and removeConn are the only writers of conns.
func (s *Stack) addConn(c *Conn) {
	s.conns[c.key] = c
	s.portConns[c.key.localPort]++
}

func (s *Stack) removeConn(c *Conn) {
	if s.conns[c.key] != c {
		return
	}
	delete(s.conns, c.key)
	if s.portConns[c.key.localPort]--; s.portConns[c.key.localPort] == 0 {
		delete(s.portConns, c.key.localPort)
	}
}

// allocPort returns the next ephemeral port after the last one handed out
// that has neither a listener nor a connection on it.
func (s *Stack) allocPort() (int, error) {
	for tries := s.portHi - s.portLo + 1; tries > 0; tries-- {
		s.nextPort++
		if s.nextPort > s.portHi {
			s.nextPort = s.portLo
		}
		if _, used := s.listeners[s.nextPort]; used {
			continue
		}
		if s.portConns[s.nextPort] == 0 {
			return s.nextPort, nil
		}
	}
	return 0, ErrPortsExhausted
}

func (s *Stack) allocISS() uint64 {
	s.nextISS += 1 << 18
	return s.nextISS
}

// Connect opens a connection to dst, blocking the calling task until the
// handshake completes or times out.
func (s *Stack) Connect(t *kernel.Task, dst Addr) (*Conn, error) {
	t.Syscall()
	port, err := s.allocPort()
	if err != nil {
		return nil, fmt.Errorf("connect %v: %w", dst, err)
	}
	key := connKey{localPort: port, remoteHost: dst.Host, remotePort: dst.Port}
	c := newConn(s, key, stateSynSent)
	c.iss = s.allocISS()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	s.addConn(c)
	c.sendSegment(FlagSYN, c.iss, nil, false)
	c.armRTO()
	for c.state == stateSynSent {
		c.connectQ.Wait(t.Proc())
	}
	if c.err != nil {
		return nil, fmt.Errorf("connect %v: %w", dst, c.err)
	}
	return c, nil
}
