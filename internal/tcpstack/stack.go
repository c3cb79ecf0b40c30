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
//
// Acknowledgements follow Linux (RFC 1122 §4.2.3.2, RFC 5681 §4.2): a
// connection ACKs its first 16 in-order data segments at once (quick-ACK
// mode); after that an in-order segment only owes an ACK, which the next
// outgoing segment carries, a second owed segment sends, or a 40 ms timer
// sends. Out-of-order, duplicate or window-truncated data, a FIN, a
// zero-window probe and a window reopen are ACKed at once. So past
// quick-ACK mode a request/reply exchange is one segment each way, and
// every ACK, delayed or not, passes the egress gate like any segment.
package tcpstack

import (
	"errors"
	"fmt"
	"io"
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
var EOF = io.EOF

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
		MSS:        1448,                   // a 1500 B Ethernet MTU less IP, TCP and timestamp headers
		SendBuf:    256 << 10,              // model choice: a window that fills GigE (§4.4)
		RecvBuf:    256 << 10,              // as SendBuf
		RTOMin:     200 * time.Millisecond, // Linux's TCP_RTO_MIN
		RTOMax:     time.Second,            // model choice, below Linux's 120 s to keep runs short
		TimeWait:   500 * time.Millisecond, // model choice, below Linux's 60 s to keep runs short
		SynRetries: 6,                      // Linux's tcp_syn_retries
		SegmentCPU: 2 * time.Microsecond,   // model choice: a segment's stack traversal
	}
}

// EgressGate intercepts every outgoing segment before the IP layer. The
// gate ends by calling seg.Send, which puts the segment on the wire: at once
// (DirectGate) or after holding it until the output is stable (the
// replication layer's output-commit gate). Gates must send segments of a
// connection in the order they were submitted, and must not touch a segment
// after sending it. The one exception to sending every segment: a pure ACK
// (Segment.PureAck) still held when a later segment of the same connection
// is submitted may be dropped (Segment.Drop), because the later one carries
// a cumulative ACK at least as high and a newer window.
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

	// Free lists (DESIGN.md §20): segment and connection records, the
	// backing arrays of the connections' send and receive windows, and
	// parked Recvs' readers. They belong to this stack, so simulations
	// sharing a process share nothing.
	segFree  []*Segment
	connFree []*Conn
	bufs     streambuf.Pool
	readers  []*reader

	// Ephemeral ports are handed out round-robin from [portLo, portHi].
	portLo, portHi, nextPort int

	// SegsIn/SegsOut count segments processed, for diagnostics.
	SegsIn, SegsOut int64

	// Event callbacks for the TCP-stack replication component (§3.4).
	// All are optional and must not block (they run in segment-processing
	// context).

	// OnOpen fires when a connection opens: an active open as it reaches
	// ESTABLISHED, a passive one as it sends its SYN-ACK, so a replication
	// layer learns of it before the client can use it.
	OnOpen func(*Conn)
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

// SetPortRange narrows the ephemeral ports Connect hands out to [lo, hi],
// the first being lo: a narrow range reuses four-tuples soon.
func (s *Stack) SetPortRange(lo, hi int) { s.portLo, s.portHi, s.nextPort = lo, hi, hi }

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
	s.reset(seg) // no socket
}

// reset answers seg with a RST, unless it is one.
func (s *Stack) reset(seg *Segment) {
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
	c := s.newConn(key, stateSynSent)
	c.iss = s.allocISS()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	s.addConn(c)
	c.sendSegment(FlagSYN, c.iss, nil, false)
	c.armRTO()
	for c.state == stateSynSent {
		c.connectQ.Wait(t.Proc())
	}
	if err := c.err; err != nil {
		c.closed = true // no owner will: the record goes back now
		c.release()
		return nil, fmt.Errorf("connect %v: %w", dst, err)
	}
	return c, nil
}
