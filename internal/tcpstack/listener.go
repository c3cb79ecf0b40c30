package tcpstack

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Listener is a passive socket accepting connections on a port.
type Listener struct {
	stack   *Stack
	port    int
	backlog int
	ready   []*Conn // established, waiting for Accept
	acceptQ sim.WaitQueue
	closed  bool
	pollFns []func()
}

// Listen opens a listening socket on the given port.
func (s *Stack) Listen(port, backlog int) (*Listener, error) {
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("listen :%d: %w", port, ErrPortInUse)
	}
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{
		stack:   s,
		port:    port,
		backlog: backlog,
	}
	s.listeners[port] = l
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() int { return l.port }

// Pending reports established connections waiting to be accepted.
func (l *Listener) Pending() int { return len(l.ready) }

// handleSYN processes an incoming connection request.
func (l *Listener) handleSYN(seg *Segment) {
	if l.closed || len(l.ready) >= l.backlog {
		return // silently drop: the client will retransmit its SYN
	}
	key := connKey{localPort: l.port, remoteHost: seg.Src.Host, remotePort: seg.Src.Port}
	c := newConn(l.stack, key, stateSynRcvd)
	c.iss = l.stack.allocISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndBase = c.iss + 1
	c.irs = seg.Seq
	c.rcvNxt = c.irs + 1
	c.sndWnd = seg.Window
	c.listener = l
	l.stack.addConn(c)
	c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
	c.armRTO()
}

// connReady moves an established connection into the accept queue.
func (l *Listener) connReady(c *Conn) {
	if l.closed {
		c.Abort()
		return
	}
	l.ready = append(l.ready, c)
	l.acceptQ.WakeOne(0)
	l.notifyPoll()
}

// Accept blocks until a connection is established and returns it.
func (l *Listener) Accept(t *kernel.Task) (*Conn, error) {
	t.Syscall()
	for len(l.ready) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		l.acceptQ.Wait(t.Proc())
	}
	c := l.ready[0]
	l.ready = l.ready[1:]
	return c, nil
}

// Close stops accepting; queued-but-unaccepted connections are reset.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.port)
	for _, c := range l.ready {
		c.Abort()
	}
	l.ready = nil
	l.acceptQ.WakeAll(0)
	l.notifyPoll()
}
