package tcprep

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// Sockets is the interposed TCP socket interface replicated applications
// use (§3.2): on the primary, calls go to the real stack and their results
// are recorded; on the secondary, calls are NOT forwarded to a TCP stack —
// the recorded results are returned and the logical connection state is
// maintained so execution can transition to unmanaged sockets at failover.
type Sockets struct {
	ns    *replication.Namespace
	stack *tcpstack.Stack // primary & live roles; secondary: set at Promote
	prim  *Primary
	sec   *Secondary

	nextID     uint64
	listeners  []*Listener
	unaccepted []*LogicalConn // restored at promotion, for a listener on their port
	liveQ      sim.WaitQueue

	// sent counts each replicated connection's output-stream bytes at its
	// Send section's exit, so at a quiesced boundary it is identical on
	// every replica, which the stack's own counters are not.
	sent map[uint64]uint64
}

// NewSockets builds the interposed socket layer for one replica side.
// Exactly one of prim/sec is non-nil except for live (baseline) mode,
// where both are nil and stack is used directly.
func NewSockets(ns *replication.Namespace, stack *tcpstack.Stack, prim *Primary, sec *Secondary) *Sockets {
	return &Sockets{ns: ns, stack: stack, prim: prim, sec: sec, sent: make(map[uint64]uint64)}
}

// SendCursor is one replicated connection's cumulative output-stream byte
// count at a quiesced section boundary. A checkpoint-seeded backup's
// regenerated output starts at its epoch's cursors (Secondary.SeedOutBase).
type SendCursor struct {
	ID   uint64
	Sent uint64
}

// SendCursors writes over buf's array every replicated connection's sent
// count, sorted by socket ID. Call it at a quiesced section boundary: the
// result is the same on every replica and folded into the epoch digest.
func (s *Sockets) SendCursors(buf []SendCursor) []SendCursor {
	cur := slices.Grow(buf[:0], len(s.sent))
	for id, n := range s.sent {
		cur = append(cur, SendCursor{ID: id, Sent: n})
	}
	slices.SortFunc(cur, func(a, b SendCursor) int { return cmp.Compare(a.ID, b.ID) })
	return cur
}

// SeedSent installs a checkpoint's send cursors on a freshly seeded
// replica, so its counters continue from the epoch cut as the recording side's do.
func (s *Sockets) SeedSent(cur []SendCursor) {
	for _, c := range cur {
		s.sent[c.ID] = c.Sent
	}
}

// Listener is a replicated listening socket.
type Listener struct {
	socks *Sockets
	id    uint64
	port  int
	real  *tcpstack.Listener // nil on the secondary until promotion
}

// Conn is a replicated connection endpoint.
type Conn struct {
	socks   *Sockets
	id      uint64
	real    *tcpstack.Conn // primary / live / post-promotion
	logical *LogicalConn   // its record, if its side keeps them
}

// awaitLive blocks a secondary task until failover promotion installs the
// live stack (threads flushed out of replay park here while the NIC driver
// reloads).
func (s *Sockets) awaitLive(t *kernel.Task) {
	for s.stack == nil {
		s.liveQ.Wait(t.Proc())
	}
}

// Listen opens a replicated listening socket.
func (s *Sockets) Listen(th *replication.Thread, port, backlog int) (*Listener, error) {
	l := &Listener{socks: s, port: port}
	res := s.ns.SyscallU64(th, replication.OpSockResult, uint64(port), func() uint64 {
		s.awaitLive(th.Task())
		real, err := s.stack.Listen(port, backlog)
		if err != nil {
			return encodeRes(0, err)
		}
		l.real = real
		s.adopt(l)
		s.nextID++
		l.id = s.nextID
		return l.id
	})
	if _, err := decodeRes(res); err != nil {
		return nil, fmt.Errorf("ft listen :%d: %w", port, err)
	}
	l.id = res
	s.nextID = max(s.nextID, res) // a replayed listen: the ids a promoted side draws come after it
	s.listeners = append(s.listeners, l)
	return l, nil
}

// Accept returns the next replicated connection. Its handle lives in the
// connection's record; only the unreplicated baseline, which keeps none,
// allocates one.
func (l *Listener) Accept(th *replication.Thread) *Conn {
	s := l.socks
	var c *Conn
	id := s.ns.SyscallU64(th, replication.OpSockResult, l.id, func() uint64 {
		s.awaitLive(th.Task())
		real := l.real.Accept(th.Task())
		s.nextID++
		if s.prim == nil {
			c = &Conn{socks: s}
		} else {
			c = s.prim.bindConn(th, s.nextID, real).handle(s)
		}
		c.real = real
		return s.nextID
	})
	s.nextID = max(s.nextID, id)
	if c == nil { // replayed: the record the recording side bound the id to
		c = s.sec.bindWait(th.Task(), id).handle(s)
	}
	c.id = id
	return c
}

// handle returns the record's socket handle, bound to it. A record whose
// handle an earlier accept took — its four-tuple was reused before its
// first connection was accepted — gets a fresh one.
func (lc *LogicalConn) handle(s *Sockets) *Conn {
	c := &lc.h
	if c.socks != nil {
		c = &Conn{}
	}
	c.socks, c.logical, c.real = s, lc, lc.live
	return c
}

// ID returns the replicated socket identifier the listener's accept
// sections are keyed by. Restorable applications snapshot it so a
// checkpoint-seeded replica can re-adopt the listener without re-issuing
// the (truncated) listen section.
func (l *Listener) ID() uint64 { return l.id }

// ID returns the replicated socket identifier of the connection.
func (c *Conn) ID() uint64 { return c.id }

// AdoptListener rebuilds a listener handle on a checkpoint-seeded replica
// without entering a det section: the listen call happened before the
// epoch cut, so its tuple is gone from the delta log and must not be
// re-issued. The handle is registered for re-listen at promotion, and the
// socket ID counter is advanced past the adopted ID so connections
// accepted after promotion cannot collide with checkpointed ones.
func (s *Sockets) AdoptListener(port int, id uint64) *Listener {
	l := &Listener{socks: s, port: port, id: id}
	s.nextID = max(s.nextID, id)
	s.listeners = append(s.listeners, l)
	return l
}

// AdoptConn rebuilds a replicated connection handle on a checkpoint-seeded
// replica, again without entering a det section. consumed is the number of
// input-stream bytes the application had read before the snapshot was cut;
// the seeded logical input stream retains them, and marking them consumed
// resumes replayed reads at the application's restored position. Blocks
// until the checkpoint's bind for id has been seeded.
func (s *Sockets) AdoptConn(t *kernel.Task, id uint64, consumed int) *Conn {
	s.nextID = max(s.nextID, id)
	if s.sec == nil {
		return &Conn{socks: s, id: id}
	}
	lc := s.sec.bindWait(t, id)
	lc.inRead = max(lc.inRead, min(consumed, lc.in.Len()))
	c := lc.handle(s)
	c.id = id
	return c
}

// Recv reads up to max bytes from the replicated connection. On the
// secondary the recorded byte count is consumed from the synced input
// stream — the syscall is not forwarded to any TCP stack. In every role the
// bytes are lent as by tcpstack's Recv: valid until the next Recv or Close
// on the connection; echoing them straight into Send is fine.
func (c *Conn) Recv(th *replication.Thread, max int) ([]byte, error) {
	s := c.socks
	var data []byte
	res := s.ns.SyscallU64(th, replication.OpSockData, c.id, func() uint64 {
		s.awaitLive(th.Task())
		c.promoteLocal()
		if c.real == nil {
			return encodeRes(0, tcpstack.ErrClosed)
		}
		d, err := c.real.Recv(th.Task(), max)
		data = d
		return encodeRes(len(d), err)
	})
	n, err := decodeRes(res)
	if err != nil {
		return nil, err
	}
	if data == nil && n > 0 {
		// Secondary replay: consume the same bytes from the synced stream.
		data = c.logical.read(th.Task(), n)
	}
	return data, nil
}

// Send writes data to the replicated connection. On the secondary the
// replica-regenerated bytes accumulate in the logical output buffer for
// retransmission after failover.
func (c *Conn) Send(th *replication.Thread, data []byte) (int, error) {
	s := c.socks
	res := s.ns.SyscallU64(th, replication.OpSockData, c.id, func() uint64 {
		s.awaitLive(th.Task())
		c.promoteLocal()
		if c.real == nil {
			return encodeRes(0, tcpstack.ErrClosed)
		}
		n, err := c.real.Send(th.Task(), data)
		return encodeRes(n, err)
	})
	n, err := decodeRes(res)
	if err != nil {
		return n, err
	}
	s.sent[c.id] += uint64(n)
	if c.real == nil && c.logical != nil {
		c.logical.appendOut(data[:n])
	}
	return n, nil
}

// Close closes the replicated connection.
func (c *Conn) Close(th *replication.Thread) error {
	s := c.socks
	res := s.ns.SyscallU64(th, replication.OpSockResult, c.id, func() uint64 {
		s.awaitLive(th.Task())
		c.promoteLocal()
		if c.real == nil {
			return 0
		}
		err := c.real.Close(th.Task())
		if c.logical != nil {
			c.logical.closed() // before the stack can reuse the connection
		}
		return encodeRes(0, err)
	})
	if c.real == nil && c.logical != nil {
		c.logical.closed()
	}
	_, err := decodeRes(res)
	return err
}

// promoteLocal swaps in the restored live connection after failover (run()
// paths execute only in live mode, so the logical state is final).
func (c *Conn) promoteLocal() {
	if c.real == nil && c.logical != nil && c.logical.live != nil {
		c.real = c.logical.live
	}
}

// Promote installs the post-failover live stack on a secondary's socket
// layer: logical connections are restored into the stack, listeners are
// re-opened, and threads parked in awaitLive are released.
func (s *Sockets) Promote(stack *tcpstack.Stack) error {
	if s.sec == nil {
		return fmt.Errorf("tcprep: Promote on non-secondary socket layer")
	}
	if _, err := s.sec.Promote(stack); err != nil {
		return err
	}
	// A connection the replayed application closed finishes the teardown
	// whose FINs the dead primary never (visibly) completed. One it has not
	// accepted — unbound, or bound by an accept it has not replayed — waits
	// for a live accept, in establishment order, as on the dead primary: on
	// a replayed listener's port now, or once the live application listens
	// there (the listen's own section may not have reached this replica).
	accepted := make(map[*LogicalConn]bool)
	for _, id := range s.sec.table.bindOrder {
		if id <= s.nextID {
			accepted[s.sec.table.binds[id]] = true
		}
	}
	for _, lc := range s.sec.table.conns {
		switch conn := lc.live; {
		case conn == nil:
		case lc.appClosed:
			s.ns.Kernel().Spawn("ft-reclose", func(tk *kernel.Task) { _ = conn.Close(tk) })
		case !accepted[lc]:
			s.unaccepted = append(s.unaccepted, lc)
		}
	}
	for _, l := range s.listeners {
		real, err := stack.Listen(l.port, 0)
		if err != nil {
			return fmt.Errorf("tcprep: re-listen :%d: %w", l.port, err)
		}
		l.real = real
		s.adopt(l)
	}
	s.stack = stack
	s.liveQ.WakeAll(0)
	return nil
}

// adopt queues on l the restored connections on its port no accept took.
func (s *Sockets) adopt(l *Listener) {
	for _, lc := range s.unaccepted {
		if lc.key.LocalPort == l.port {
			l.real.Adopt(lc.live)
		}
	}
}

// AdoptPrimary installs a recording primary on a promoted socket layer, so
// connections accepted after failover keep announcing their det-log socket
// bindings — into the connection table while detached, and onto the sync
// ring once a rejoining backup attaches.
func (s *Sockets) AdoptPrimary(p *Primary) { s.prim = p }
