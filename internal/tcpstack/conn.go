package tcpstack

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/streambuf"
)

// connState is the TCP connection state.
type connState int

const (
	stateSynSent connState = iota + 1
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosing
	stateTimeWait
	stateClosed
)

var stateNames = map[connState]string{
	stateSynSent:     "SYN_SENT",
	stateSynRcvd:     "SYN_RCVD",
	stateEstablished: "ESTABLISHED",
	stateFinWait1:    "FIN_WAIT_1",
	stateFinWait2:    "FIN_WAIT_2",
	stateCloseWait:   "CLOSE_WAIT",
	stateLastAck:     "LAST_ACK",
	stateClosing:     "CLOSING",
	stateTimeWait:    "TIME_WAIT",
	stateClosed:      "CLOSED",
}

func (s connState) String() string { return stateNames[s] }

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	key   connKey
	state connState
	err   error

	// Send side. sndBuf holds the stream bytes [sndBase, sndBase+Len);
	// bytes below sndUna are acknowledged and trimmed.
	iss     uint64
	sndUna  uint64
	sndNxt  uint64
	sndBase uint64
	sndBuf  streambuf.Window
	sndWnd  int
	dupAcks int

	// finQueued is set by Close; the FIN occupies sequence finSeq, which is
	// the end of the stream (no data may be appended afterwards).
	finQueued bool
	finSeq    uint64
	closed    bool // local close requested: Send rejected

	// Receive side. rcvBuf holds in-order bytes the application has not
	// read yet, ending at rcvNxt; rcvOut holds the bytes the last Recv
	// returned, until the next Recv or Close.
	irs     uint64
	rcvNxt  uint64
	rcvBuf  streambuf.Window
	rcvOut  streambuf.Lender
	peerFin bool

	// Retransmission. One timer per connection, re-armed in place; in
	// TIME_WAIT nothing is left to retransmit and it times the linger.
	rto      time.Duration
	timer    sim.Event
	synTries int

	listener *Listener // set while pending accept (server side)

	connectQ sim.WaitQueue
	sendQ    sim.WaitQueue
	recvQ    sim.WaitQueue
	pollFns  []func()
}

func newConn(s *Stack, key connKey, st connState) *Conn {
	c := &Conn{
		stack:  s,
		key:    key,
		state:  st,
		sndWnd: s.params.RecvBuf,
		rto:    s.params.RTOMin,
	}
	c.timer.Init(s.kern.Sim(), c.onTimer)
	c.sndBuf.Init(&s.bufs)
	c.rcvBuf.Init(&s.bufs)
	c.rcvOut.Init(&s.bufs)
	return c
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() Addr { return Addr{Host: c.stack.host, Port: c.key.localPort} }

// RemoteAddr returns the connection's remote address.
func (c *Conn) RemoteAddr() Addr { return Addr{Host: c.key.remoteHost, Port: c.key.remotePort} }

// State returns the connection state name (for diagnostics and tests).
func (c *Conn) State() string { return c.state.String() }

// Established reports whether the connection is in ESTABLISHED state.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Err returns the connection's terminal error, if any.
func (c *Conn) Err() error { return c.err }

// BufferedIn reports bytes received but not yet read by the application.
func (c *Conn) BufferedIn() int { return c.rcvBuf.Len() }

// BufferedOut reports stream bytes not yet acknowledged by the peer.
func (c *Conn) BufferedOut() int { return c.sndBuf.Len() }

// recvWindow is the free receive buffer, the window advertised to the peer.
// A restored connection can hold more than RecvBuf; it advertises zero.
func (c *Conn) recvWindow() int { return max(0, c.stack.params.RecvBuf-c.rcvBuf.Len()) }

// sendRoom is the free send buffer; zero on a restored connection that
// holds more than SendBuf.
func (c *Conn) sendRoom() int { return max(0, c.stack.params.SendBuf-c.sndBuf.Len()) }

func (c *Conn) dataEnd() uint64 { return c.sndBase + uint64(c.sndBuf.Len()) }

// sendSegment emits one segment through the egress gate. data is copied
// into the segment: it may be a view of the send window.
func (c *Conn) sendSegment(flags Flags, seq uint64, data []byte, probe bool) {
	seg := c.stack.newSegment()
	seg.Src = c.LocalAddr()
	seg.Dst = c.RemoteAddr()
	seg.Seq = seq
	seg.Flags = flags
	seg.Window = c.recvWindow()
	seg.Probe = probe
	seg.setData(data)
	if flags.Has(FlagACK) {
		seg.Ack = c.rcvNxt
	}
	c.stack.transmit(seg)
}

func (c *Conn) sendAck() { c.sendSegment(FlagACK, c.sndNxt, nil, false) }

// trySend transmits as much pending data as the peer's window allows,
// followed by the FIN once the stream is fully transmitted.
func (c *Conn) trySend() {
	for {
		wndEnd := c.sndUna + uint64(c.sndWnd)
		end := c.dataEnd()
		if c.sndNxt < end && c.sndNxt < wndEnd {
			n := end - c.sndNxt
			if max := uint64(c.stack.params.MSS); n > max {
				n = max
			}
			if room := wndEnd - c.sndNxt; n > room {
				n = room
			}
			off := c.sndNxt - c.sndBase
			c.sendSegment(FlagACK, c.sndNxt, c.sndBuf.Bytes()[off:off+n], false)
			c.sndNxt += n
			c.armRTO()
			continue
		}
		if c.finQueued && c.sndNxt == c.finSeq {
			c.sendSegment(FlagFIN|FlagACK, c.sndNxt, nil, false)
			c.sndNxt++
			c.armRTO()
		}
		return
	}
}

func (c *Conn) armRTO() {
	if !c.timer.Armed() {
		c.timer.Reset(c.rto)
	}
}

func (c *Conn) resetRTO() {
	if c.sndUna < c.sndNxt {
		c.timer.Reset(c.rto)
	} else {
		c.timer.Cancel()
	}
}

func (c *Conn) onTimer() {
	if !c.stack.kern.Alive() {
		c.timer.SetBackground(true) // a dead kernel's stack still retransmits, for nobody
	}
	switch c.state {
	case stateClosed:
		return
	case stateTimeWait:
		c.reap()
		return
	case stateSynSent:
		c.synTries++
		if c.synTries > c.stack.params.SynRetries {
			c.fail(ErrTimeout)
			return
		}
		c.sendSegment(FlagSYN, c.iss, nil, false)
	case stateSynRcvd:
		c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
	default:
		if c.sndUna < c.sndNxt {
			// Go-back-N: rewind and retransmit the window.
			c.sndNxt = c.sndUna
			c.trySend()
		} else if c.sndWnd == 0 && (c.sndBuf.Len() > 0 || c.finQueued) {
			// Zero-window probe.
			c.sendSegment(FlagACK, c.sndNxt, nil, true)
		} else {
			return
		}
	}
	if c.rto *= 2; c.rto > c.stack.params.RTOMax {
		c.rto = c.stack.params.RTOMax
	}
	c.armRTO()
}

// handleSegment is the TCP input routine.
func (c *Conn) handleSegment(seg *Segment) {
	if c.state == stateClosed {
		return
	}
	if seg.Flags.Has(FlagRST) {
		c.fail(ErrReset)
		return
	}
	if c.state == stateSynSent {
		if seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = c.irs + 1
			c.sndUna = seg.Ack
			c.sndBase = seg.Ack
			c.sndWnd = seg.Window
			c.establish()
			c.sendAck()
		}
		return
	}
	if seg.Flags.Has(FlagSYN) && c.state == stateSynRcvd {
		// Duplicate SYN: our SYN+ACK was lost.
		c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
		return
	}
	if seg.Flags.Has(FlagACK) {
		c.handleAck(seg)
	}
	if c.state == stateClosed {
		return
	}
	if len(seg.Data) > 0 {
		c.handleData(seg)
	}
	if seg.Flags.Has(FlagFIN) {
		c.handleFin(seg)
	}
	if seg.Probe {
		c.sendAck()
	}
}

func (c *Conn) handleAck(seg *Segment) {
	c.sndWnd = seg.Window
	switch {
	case seg.Ack > c.sndUna && seg.Ack <= c.sndNxt:
		if c.state == stateSynRcvd {
			c.establish()
		}
		if seg.Ack > c.sndBase {
			n := seg.Ack - c.sndBase
			if queued := uint64(c.sndBuf.Len()); n > queued {
				n = queued
			}
			c.sndBuf.Discard(int(n))
			c.sndBase += n
		}
		c.sndUna = seg.Ack
		c.dupAcks = 0
		c.rto = c.stack.params.RTOMin
		c.resetRTO()
		c.sendQ.WakeAll(0)
		c.notifyPoll()
		if c.stack.OnAckIn != nil {
			c.stack.OnAckIn(c, c.OutAcked())
		}
		if c.finQueued && c.sndUna == c.finSeq+1 {
			c.ourFinAcked()
		}
	case seg.Ack == c.sndUna && c.sndUna < c.sndNxt:
		c.dupAcks++
		if c.dupAcks == 3 {
			c.dupAcks = 0
			c.sndNxt = c.sndUna
		}
	}
	c.trySend()
}

func (c *Conn) handleData(seg *Segment) {
	end := seg.Seq + uint64(len(seg.Data))
	switch {
	case end <= c.rcvNxt || seg.Seq > c.rcvNxt:
		// Duplicate or out-of-order: cumulative ACK re-states rcvNxt.
	default:
		data := seg.Data[c.rcvNxt-seg.Seq:]
		free := c.recvWindow()
		if len(data) > free {
			data = data[:free]
		}
		if len(data) > 0 {
			c.rcvBuf.Append(data)
			c.rcvNxt += uint64(len(data))
			if c.stack.OnDataIn != nil {
				c.stack.OnDataIn(c, data)
			}
			c.recvQ.WakeAll(0)
			c.notifyPoll()
		}
	}
	c.sendAck()
}

func (c *Conn) handleFin(seg *Segment) {
	finSeq := seg.Seq + uint64(len(seg.Data))
	if finSeq != c.rcvNxt {
		c.sendAck() // old duplicate FIN, or FIN beyond a gap
		return
	}
	c.rcvNxt++
	c.peerFin = true
	if c.stack.OnPeerFin != nil {
		c.stack.OnPeerFin(c)
	}
	switch c.state {
	case stateEstablished:
		c.state = stateCloseWait
	case stateFinWait1:
		c.state = stateClosing
	case stateFinWait2:
		c.enterTimeWait()
	}
	c.recvQ.WakeAll(0)
	c.notifyPoll()
	c.sendAck()
}

func (c *Conn) ourFinAcked() {
	switch c.state {
	case stateFinWait1:
		c.state = stateFinWait2
	case stateClosing:
		c.enterTimeWait()
	case stateLastAck:
		c.reap()
	}
}

func (c *Conn) establish() {
	c.state = stateEstablished
	if c.stack.OnEstablished != nil {
		c.stack.OnEstablished(c)
	}
	c.connectQ.WakeAll(0)
	if c.listener != nil {
		c.listener.connReady(c)
		c.listener = nil
	}
	c.notifyPoll()
}

func (c *Conn) enterTimeWait() {
	c.state = stateTimeWait
	c.timer.Reset(c.stack.params.TimeWait)
}

// reap finishes the connection without error.
func (c *Conn) reap() {
	c.state = stateClosed
	c.timer.Cancel()
	c.stack.removeConn(c)
	if c.stack.OnReaped != nil {
		c.stack.OnReaped(c)
	}
	c.connectQ.WakeAll(0)
	c.sendQ.WakeAll(0)
	c.recvQ.WakeAll(0)
	c.notifyPoll()
}

// fail terminates the connection with an error (RST received, timeout).
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.err = err
	c.reap()
}

// Send writes data to the connection, blocking until every byte is
// accepted into the send buffer. It returns the number of bytes written.
func (c *Conn) Send(t *kernel.Task, data []byte) (int, error) {
	t.Syscall()
	written := 0
	for written < len(data) {
		if c.err != nil {
			return written, c.err
		}
		if c.closed || c.state == stateClosed {
			return written, ErrClosed
		}
		free := c.sendRoom()
		if free == 0 {
			c.sendQ.Wait(t.Proc())
			continue
		}
		n := len(data) - written
		if n > free {
			n = free
		}
		c.sndBuf.Append(data[written : written+n])
		written += n
		if cost := c.stack.params.SegmentCPU; cost > 0 {
			segs := (n + c.stack.params.MSS - 1) / c.stack.params.MSS
			t.Busy(time.Duration(segs) * cost)
		}
		c.trySend()
	}
	return written, nil
}

// Recv reads up to max bytes, blocking until data is available. It returns
// EOF once the peer has closed and all data has been consumed, and nothing,
// at once, if max is not positive (like recv(2) of length 0).
//
// The bytes are lent, not given: the slice is a view of storage the
// connection reuses, valid until the next Recv or Close on it. A caller
// that keeps bytes longer copies them; echoing them straight into Send is
// fine, because Send copies.
func (c *Conn) Recv(t *kernel.Task, max int) ([]byte, error) {
	t.Syscall()
	if max <= 0 {
		return nil, nil
	}
	for c.rcvBuf.Len() == 0 {
		if c.err != nil {
			return nil, c.err
		}
		if c.peerFin {
			return nil, EOF
		}
		if c.state == stateClosed {
			return nil, ErrClosed
		}
		c.recvQ.Wait(t.Proc())
	}
	n := min(c.rcvBuf.Len(), max)
	out := c.rcvOut.Lend(c.rcvBuf.Bytes()[:n])
	wasFull := c.recvWindow() == 0
	c.rcvBuf.Discard(n)
	if cost := c.stack.params.SegmentCPU; cost > 0 {
		segs := (n + c.stack.params.MSS - 1) / c.stack.params.MSS
		t.Busy(time.Duration(segs) * cost)
	}
	if wasFull {
		c.sendAck() // window update: reopen the peer's send window
	}
	return out, nil
}

// Close initiates an orderly shutdown: the FIN goes out after all buffered
// data. Further Sends fail with ErrClosed; Recv continues to drain. The
// bytes the last Recv lent go back to the stack's free list.
func (c *Conn) Close(t *kernel.Task) error {
	t.Syscall()
	c.rcvOut.Reclaim()
	if c.closed {
		return nil
	}
	c.closed = true
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	case stateSynSent, stateSynRcvd:
		c.reap()
		return nil
	default:
		return nil
	}
	c.finQueued = true
	c.finSeq = c.dataEnd()
	c.trySend()
	c.notifyPoll()
	return nil
}

// Abort terminates the connection immediately, sending an RST.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendSegment(FlagRST|FlagACK, c.sndNxt, nil, false)
	c.fail(ErrClosed)
}

// ISS returns the initial send sequence number.
func (c *Conn) ISS() uint64 { return c.iss }

// IRS returns the peer's initial sequence number.
func (c *Conn) IRS() uint64 { return c.irs }

// OutAcked reports how many output-stream bytes the peer has acknowledged.
func (c *Conn) OutAcked() uint64 {
	if c.sndUna <= c.iss {
		return 0
	}
	n := c.sndUna - c.iss - 1
	if c.finQueued && c.sndUna == c.finSeq+1 {
		n-- // the FIN consumed one sequence number
	}
	return n
}

// PeerFin reports whether the peer's FIN has been accepted.
func (c *Conn) PeerFin() bool { return c.peerFin }

// Kick re-arms transmission after a Restore: it retransmits unacknowledged
// data from sndUna and re-announces the receive window, so both directions
// resynchronize with the peer after failover.
func (c *Conn) Kick() {
	if c.state == stateClosed {
		return
	}
	c.sndNxt = c.sndUna
	c.dupAcks = 0
	c.trySend()
	c.sendAck()
}
