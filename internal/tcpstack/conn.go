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
	stateReleased // a record back on the free list, in test binaries
)

// Linux's ACK policy (RFC 1122 §4.2.3.2, RFC 5681 §4.2): a connection's
// first quickAcks in-order data segments are acknowledged at once
// (TCP_MAX_QUICKACKS); after that an ACK is owed until an outgoing segment
// carries it, a second segment is owed, or delAckTimeout passes
// (TCP_DELACK_MIN).
const (
	quickAcks     = 16
	delAckTimeout = 40 * time.Millisecond
)

// Conn is one TCP connection endpoint. Conns are pooled records (DESIGN.md
// §20), released by the kernel's socket-refcount rule: the record goes back
// to its stack's free list once its owner has closed it and the state
// machine has reaped it, whichever comes last. Nothing may use the Conn
// afterwards; test binaries poison a released record (poisonReleased), so a
// use panics. A connection that never reaches an owner — one Connect gives
// up on — is released as it fails.
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

	// Retransmission. One timer per record, bound once and re-armed in
	// place; in TIME_WAIT nothing is left to retransmit and it times the
	// linger.
	rto      time.Duration
	timer    sim.Event
	synTries int

	// Delayed ACK. quickAcked counts the in-order data segments ACKed at
	// once, up to quickAcks; ackOwed is set while delAck is armed. delAck
	// is bound on the record's first delayed ACK (a short connection never
	// delays, and the method value is an allocation), then kept.
	quickAcked  int
	ackOwed     bool
	delAck      sim.Event
	delAckBound bool

	listener *Listener // set while pending accept (server side)

	connectQ sim.WaitQueue
	sendQ    sim.WaitQueue
	recvQ    sim.WaitQueue // a second concurrent Recv; the first parks on rd
	rd       *reader
}

// newConn takes a connection record from the stack's free list, or makes
// one and binds its timer and buffers, which every later connection in the
// record keeps.
func (s *Stack) newConn(key connKey, st connState) *Conn {
	var c *Conn
	if n := len(s.connFree); n > 0 {
		c = s.connFree[n-1]
		s.connFree[n-1] = nil
		s.connFree = s.connFree[:n-1]
	} else {
		c = &Conn{}
		c.timer.Init(s.kern.Domain(), c.onTimer)
		c.sndBuf.Init(&s.bufs)
		c.rcvBuf.Init(&s.bufs)
		c.rcvOut.Init(&s.bufs)
	}
	*c = Conn{
		stack: s, key: key, state: st, sndWnd: s.params.RecvBuf, rto: s.params.RTOMin,
		timer: c.timer, delAck: c.delAck, delAckBound: c.delAckBound,
		sndBuf: c.sndBuf, rcvBuf: c.rcvBuf, rcvOut: c.rcvOut,
		connectQ: c.connectQ, sendQ: c.sendQ, recvQ: c.recvQ,
	}
	return c
}

// release returns the record to the stack's free list: it is closed and
// reaped, so its timers are disarmed and its queues empty. Buffered bytes
// go back to the stack's buffer pool.
func (c *Conn) release() {
	c.sndBuf.Discard(c.sndBuf.Len())
	c.rcvBuf.Discard(c.rcvBuf.Len())
	c.rcvOut.Reclaim()
	c.stack.connFree = append(c.stack.connFree, c)
	if poisonReleased {
		c.state, c.err, c.closed = stateReleased, nil, false
		c.key = connKey{localPort: -1, remoteHost: "released", remotePort: -1}
		c.iss, c.irs, c.sndUna, c.sndNxt, c.rcvNxt = 1<<63-1, 1<<63-1, 1<<63-1, 1<<63-1, 1<<63-1
	}
}

// live panics on a released record: only test binaries mark one so.
func (c *Conn) live() {
	if c.state == stateReleased {
		panic("tcpstack: use of a released connection")
	}
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() Addr { return Addr{Host: c.stack.host, Port: c.key.localPort} }

// RemoteAddr returns the connection's remote address.
func (c *Conn) RemoteAddr() Addr { return Addr{Host: c.key.remoteHost, Port: c.key.remotePort} }

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
		c.clearOwedAck() // this segment carries it
	}
	c.stack.transmit(seg)
}

func (c *Conn) sendAck() { c.sendSegment(FlagACK, c.sndNxt, nil, false) }

// ackInOrder acknowledges an in-order data segment the receive buffer took
// whole: at once in quick-ACK mode or when a second segment is owed, else
// later (the policy above).
func (c *Conn) ackInOrder() {
	switch {
	case c.quickAcked < quickAcks:
		c.quickAcked++
		c.sendAck()
	case c.ackOwed:
		c.sendAck()
	default:
		if !c.delAckBound {
			c.delAckBound = true
			c.delAck.Init(c.stack.kern.Domain(), c.onDelAck)
		}
		c.ackOwed = true
		c.delAck.Reset(delAckTimeout)
	}
}

func (c *Conn) clearOwedAck() {
	if c.ackOwed {
		c.ackOwed = false
		c.delAck.Cancel()
	}
}

// onDelAck sends the owed ACK no outgoing segment carried in time.
func (c *Conn) onDelAck() {
	if c.ackOwed {
		c.sendAck()
	}
}

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
		switch {
		case seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.iss+1:
			c.irs = seg.Seq
			c.rcvNxt = c.irs + 1
			c.sndUna = seg.Ack
			c.sndBase = seg.Ack
			c.sndWnd = seg.Window
			c.establish()
			c.sendAck()
		case seg.Flags.Has(FlagACK):
			// It acknowledges something else: the peer still holds an
			// earlier connection on this four-tuple. Reset that one (RFC
			// 9293 §3.10.7.3), so the SYN's next retransmission finds the
			// listener.
			c.stack.reset(seg)
		}
		return
	}
	if seg.Flags.Has(FlagSYN) && (c.state == stateSynRcvd || !seg.Flags.Has(FlagACK) && seg.Seq == c.irs) {
		// Duplicate SYN: our SYN+ACK was lost, or a failed primary never
		// sent it and a restored connection answers in its place.
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
			c.wakeReaders()
		}
		if c.rcvNxt == end {
			c.ackInOrder()
			return
		}
		// Truncated by the window: the ACK tells the peer at once.
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
	c.wakeReaders()
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
	if c.stack.OnOpen != nil && c.listener == nil { // a passive open fired it at its SYN-ACK
		c.stack.OnOpen(c)
	}
	c.connectQ.WakeAll(0)
	if c.listener != nil {
		c.listener.connReady(c)
		c.listener = nil
	}
}

func (c *Conn) enterTimeWait() {
	c.state = stateTimeWait
	c.timer.Reset(c.stack.params.TimeWait)
}

// reap finishes the connection without error.
func (c *Conn) reap() {
	c.state = stateClosed
	c.timer.Cancel()
	c.clearOwedAck()
	c.stack.removeConn(c)
	if c.stack.OnReaped != nil {
		c.stack.OnReaped(c)
	}
	c.connectQ.WakeAll(0)
	c.sendQ.WakeAll(0)
	c.wakeReaders()
	if c.closed {
		c.release()
	}
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
// The syscall's cost is paid with the first chunk's segment cost, as one
// stretch of CPU, or on its own before the call blocks or fails.
func (c *Conn) Send(t *kernel.Task, data []byte) (int, error) {
	c.live()
	owed := t.Kernel().Params().SyscallCost
	written := 0
	for written < len(data) {
		free := c.sendRoom()
		if c.err != nil || c.closed || c.state == stateClosed || free == 0 {
			if owed > 0 {
				t.Busy(owed)
				owed = 0
				continue
			}
			switch {
			case c.err != nil:
				return written, c.err
			case c.closed || c.state == stateClosed:
				return written, ErrClosed
			}
			c.sendQ.Wait(t.Proc())
			continue
		}
		n := min(len(data)-written, free)
		c.sndBuf.Append(data[written : written+n])
		written += n
		t.Busy(owed + c.segmentCPU(n))
		owed = 0
		c.trySend()
	}
	t.Busy(owed)
	return written, nil
}

// segmentCPU is the CPU cost of processing n bytes in MSS-sized segments.
func (c *Conn) segmentCPU(n int) time.Duration {
	return time.Duration((n+c.stack.params.MSS-1)/c.stack.params.MSS) * c.stack.params.SegmentCPU
}

// Recv reads up to max bytes, blocking until data is available. It returns
// EOF once the peer has closed and all data has been consumed, and nothing,
// at once, if max is not positive (like recv(2) of length 0). The syscall's
// cost is paid after the wait, with the copy's, as one stretch of CPU: by
// the wake-up of a Recv that parked (see reader).
//
// The bytes are lent, not given: the slice is a view of storage the
// connection reuses, valid until the next Recv or Close on it. A caller
// that keeps bytes longer copies them; echoing them straight into Send is
// fine, because Send copies.
func (c *Conn) Recv(t *kernel.Task, max int) ([]byte, error) {
	c.live()
	syscall := t.Kernel().Params().SyscallCost
	if max <= 0 {
		t.Busy(syscall)
		return nil, nil
	}
	if c.rcvBuf.Len() == 0 && c.err == nil && !c.peerFin && c.state != stateClosed && c.rd == nil && c.recvQ.Len() == 0 {
		return c.park(t, max)
	}
	for c.rcvBuf.Len() == 0 {
		var err error
		switch {
		case c.err != nil:
			err = c.err
		case c.peerFin:
			err = EOF
		case c.state == stateClosed:
			err = ErrClosed
		default:
			c.recvQ.Wait(t.Proc())
			continue
		}
		t.Busy(syscall)
		return nil, err
	}
	n := min(c.rcvBuf.Len(), max)
	out := c.rcvOut.Lend(c.rcvBuf.Bytes()[:n])
	wasFull := c.recvWindow() == 0
	c.rcvBuf.Discard(n)
	t.Busy(syscall + c.segmentCPU(n))
	if wasFull {
		c.sendAck() // window update: reopen the peer's send window
	}
	return out, nil
}

// reader is a Recv parked on an empty connection. Its wake-up, ev, fires
// where the task's resume would have been queued and does there what the
// task would have done on resuming — lend the bytes and discard them, or
// take the error that ends the wait — then wakes the task once the read's
// CPU time has passed: virtual time is Busy's, but the task is switched in
// once rather than twice. Readers are recycled through Stack.readers.
type reader struct {
	ev      sim.Event
	q       sim.WaitQueue
	c       *Conn
	t       *kernel.Task
	max     int
	out     []byte
	err     error
	wasFull bool
	done    bool
}

// park is Recv on an empty connection: it waits on a reader for its read.
func (c *Conn) park(t *kernel.Task, max int) ([]byte, error) {
	r := c.stack.reader()
	r.c, r.t, r.max = c, t, max
	r.ev.SetBackground(t.Proc().Background()) // as the task's own resume would be
	c.rd = r
	defer c.unpark(r) // a task killed while parked unwinds through it too
	r.q.Wait(t.Proc())
	if r.wasFull {
		c.sendAck() // window update: reopen the peer's send window
	}
	return r.out, r.err
}

func (s *Stack) reader() *reader {
	if n := len(s.readers); n > 0 {
		r := s.readers[n-1]
		s.readers = s.readers[:n-1]
		return r
	}
	r := &reader{}
	r.ev.Init(s.kern.Domain(), r.ready)
	return r
}

func (c *Conn) unpark(r *reader) {
	r.ev.Cancel()
	c.rd = nil
	r.c, r.t, r.out, r.err, r.wasFull, r.done = nil, nil, nil, nil, false, false
	c.stack.readers = append(c.stack.readers, r)
}

// wakeReaders wakes the connection's waiting Recvs, a parked reader first,
// as the queue it waits on would.
func (c *Conn) wakeReaders() {
	if r := c.rd; r != nil && !r.done && !r.ev.Armed() {
		r.ev.Reset(0)
	}
	c.recvQ.WakeAll(0)
}

// ready is a parked reader's wake-up: what Recv's loop would do on resuming.
func (r *reader) ready() {
	c := r.c
	if r.t.Proc().Killed() {
		return // the task unwinds without reading
	}
	busy := r.t.Kernel().Params().SyscallCost
	switch {
	case c.rcvBuf.Len() > 0:
		n := min(c.rcvBuf.Len(), r.max)
		r.out = c.rcvOut.Lend(c.rcvBuf.Bytes()[:n])
		r.wasFull = c.recvWindow() == 0
		c.rcvBuf.Discard(n)
		busy += c.segmentCPU(n)
	case c.err != nil:
		r.err = c.err
	case c.peerFin:
		r.err = EOF
	case c.state == stateClosed:
		r.err = ErrClosed
	default:
		return // nothing to read: the task stays parked
	}
	r.done = true
	r.t.Charge(busy)
	r.q.WakeOne(busy)
}

// Close is the owner's last call on the connection, as close(2) is on a
// socket: it initiates an orderly shutdown — the FIN goes out after all
// buffered data — and gives the record up, to be released once the state
// machine has reaped it. Nothing may use the Conn afterwards. The bytes
// the last Recv lent go back to the stack's free list.
func (c *Conn) Close(t *kernel.Task) error {
	c.live()
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
		c.reap() // and release
		return nil
	default: // reaped already
		c.release()
		return nil
	}
	c.finQueued = true
	c.finSeq = c.dataEnd()
	c.trySend()
	return nil
}

// Abort terminates the connection immediately, sending an RST.
func (c *Conn) Abort() {
	c.live()
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

// Kick re-arms transmission after a Restore: it retransmits unacknowledged
// data from sndUna and re-announces the receive window, so both directions
// resynchronize with the peer after failover.
func (c *Conn) Kick() {
	c.live()
	if c.state == stateClosed {
		return
	}
	c.sndNxt = c.sndUna
	c.dupAcks = 0
	c.trySend()
	c.sendAck()
}
