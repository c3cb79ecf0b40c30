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
	ready   []*Conn // established, waiting for Accept, from ready[head] on
	head    int
	acceptQ sim.WaitQueue
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

// handleSYN processes an incoming connection request.
func (l *Listener) handleSYN(seg *Segment) {
	if len(l.ready)-l.head >= l.backlog {
		return // silently drop: the client will retransmit its SYN
	}
	key := connKey{localPort: l.port, remoteHost: seg.Src.Host, remotePort: seg.Src.Port}
	c := l.stack.newConn(key, stateSynRcvd)
	c.iss = l.stack.allocISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndBase = c.iss + 1
	c.irs = seg.Seq
	c.rcvNxt = c.irs + 1
	c.sndWnd = seg.Window
	c.listener = l
	l.stack.addConn(c)
	if l.stack.OnOpen != nil {
		l.stack.OnOpen(c)
	}
	c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
	c.armRTO()
}

// connReady moves an established connection into the accept queue.
func (l *Listener) connReady(c *Conn) {
	l.ready = append(l.ready, c)
	l.acceptQ.WakeOne(0)
}

// Adopt queues a restored connection for Accept: one that a failed
// primary's stack had established and its application had not accepted.
func (l *Listener) Adopt(c *Conn) { l.connReady(c) }

// Accept blocks until a connection is established and returns it; the
// caller owns it, and closes it (Conn.Close).
func (l *Listener) Accept(t *kernel.Task) *Conn {
	t.Syscall()
	for len(l.ready) == l.head {
		l.acceptQ.Wait(t.Proc())
	}
	c := l.ready[l.head]
	l.ready, l.head = sim.PopFront(l.ready, l.head)
	return c
}
