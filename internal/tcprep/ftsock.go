package tcprep

import (
	"fmt"
	"sort"
	"time"

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

	nextID    uint64
	listeners []*Listener
	liveQ     sim.WaitQueue

	// sent tracks each replicated connection's cumulative output-stream
	// bytes, incremented in section-settle order (atomically with the Send
	// section's exit, like restorable-app state). At any quiesced boundary
	// it is identical on every replica — the stack's own counters are NOT:
	// a primary-side send may have reached the stack while its tuple is
	// still waiting for the det lock behind a quiesced epoch cut.
	sent map[uint64]uint64
}

// NewSockets builds the interposed socket layer for one replica side.
// Exactly one of prim/sec is non-nil except for live (baseline) mode,
// where both are nil and stack is used directly.
func NewSockets(ns *replication.Namespace, stack *tcpstack.Stack, prim *Primary, sec *Secondary) *Sockets {
	return &Sockets{
		ns:    ns,
		stack: stack,
		prim:  prim,
		sec:   sec,
		sent:  make(map[uint64]uint64),
	}
}

// SendCursor is one replicated connection's cumulative output-stream byte
// count at a quiesced section boundary. Epoch checkpoints carry the full
// cursor set: a checkpoint-seeded backup replays the delta log from the
// epoch cut, so its regenerated output stream starts at these offsets —
// not at zero like a from-the-start replay — and the logical out-buffer
// accounting must be seeded to match (Secondary.SeedOutBase).
type SendCursor struct {
	ID   uint64
	Sent uint64
}

// SendCursors snapshots every replicated connection's cumulative sent
// count, sorted by socket ID. Call with the namespace quiesced at a
// section boundary; the result is deterministic across replicas and is
// folded into the epoch checkpoint digest.
func (s *Sockets) SendCursors() []SendCursor {
	cur := make([]SendCursor, 0, len(s.sent))
	for id, n := range s.sent {
		cur = append(cur, SendCursor{ID: id, Sent: n})
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].ID < cur[j].ID })
	return cur
}

// SeedSent installs a checkpoint's send cursors on a freshly seeded
// replica, so its counters continue from the epoch cut exactly where the
// recording side's did — and its own future boundary digests agree.
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
	logical *LogicalConn   // secondary
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
		s.nextID++
		l.id = s.nextID
		return l.id
	})
	if _, err := decodeRes(res); err != nil {
		return nil, fmt.Errorf("ft listen :%d: %w", port, err)
	}
	l.id = res
	s.listeners = append(s.listeners, l)
	return l, nil
}

// Accept returns the next replicated connection.
func (l *Listener) Accept(th *replication.Thread) (*Conn, error) {
	s := l.socks
	c := &Conn{socks: s}
	res := s.ns.SyscallU64(th, replication.OpSockResult, l.id, func() uint64 {
		s.awaitLive(th.Task())
		if l.real == nil {
			return encodeRes(0, tcpstack.ErrClosed)
		}
		real, err := l.real.Accept(th.Task())
		if err != nil {
			return encodeRes(0, err)
		}
		c.real = real
		s.nextID++
		if s.prim != nil {
			s.prim.bindConn(th, s.nextID, real)
		}
		return s.nextID
	})
	if _, err := decodeRes(res); err != nil {
		return nil, fmt.Errorf("ft accept :%d: %w", l.port, err)
	}
	c.id = res
	if s.sec != nil && c.real == nil {
		c.logical = s.sec.bindWait(th.Task(), c.id)
		if c.logical.live != nil {
			c.real = c.logical.live
		}
	}
	return c, nil
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
	if id > s.nextID {
		s.nextID = id
	}
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
	c := &Conn{socks: s, id: id}
	if id > s.nextID {
		s.nextID = id
	}
	if s.sec != nil {
		c.logical = s.sec.bindWait(t, id)
		if buffered := c.logical.in.Len(); consumed > buffered {
			consumed = buffered
		}
		if consumed > c.logical.inRead {
			c.logical.inRead = consumed
		}
		if c.logical.live != nil {
			c.real = c.logical.live
		}
	}
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
		return encodeRes(0, c.real.Close(th.Task()))
	})
	if c.real == nil && c.logical != nil {
		c.logical.appClosed = true
		c.logical.lent.Reclaim()
	}
	_, err := decodeRes(res)
	return err
}

// RemoteAddr returns the peer address (primary/live only; on the secondary
// it is derived from the logical state).
func (c *Conn) RemoteAddr() tcpstack.Addr {
	if c.real != nil {
		return c.real.RemoteAddr()
	}
	if c.logical != nil {
		return tcpstack.Addr{Host: c.logical.key.RemoteHost, Port: c.logical.key.RemotePort}
	}
	return tcpstack.Addr{}
}

// Poll is the interposed poll/epoll (§3.2): it blocks until at least one
// of the given replicated sockets is readable (or the timeout elapses) and
// returns a readiness bitmask over items (bit i = items[i] readable). The
// readiness values are recorded on the primary and replayed on the
// secondary, which also lets FT-Linux maintain the epoll interest sets
// needed for unmanaged execution after failover.
func (s *Sockets) Poll(th *replication.Thread, items []*Conn, timeout time.Duration) uint64 {
	if len(items) > 64 {
		panic("tcprep: Poll supports at most 64 items")
	}
	return s.ns.SyscallU64(th, replication.OpPoll, uint64(len(items)), func() uint64 {
		s.awaitLive(th.Task())
		poller := tcpstack.NewPoller(s.ns.Kernel())
		for _, c := range items {
			c.promoteLocal()
			if c.real != nil {
				poller.Add(c.real)
			}
		}
		ready := poller.Wait(th.Task(), timeout)
		var mask uint64
		for _, r := range ready {
			for i, c := range items {
				if c.real != nil && tcpstack.Pollable(c.real) == r {
					mask |= 1 << uint(i)
				}
			}
		}
		return mask
	})
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
// re-opened, and threads parked in awaitLive are released. The kernel task
// is needed because re-listening executes on the new primary.
func (s *Sockets) Promote(t *kernel.Task, stack *tcpstack.Stack) error {
	if s.sec == nil {
		return fmt.Errorf("tcprep: Promote on non-secondary socket layer")
	}
	if _, err := s.sec.Promote(stack); err != nil {
		return err
	}
	for _, l := range s.listeners {
		real, err := stack.Listen(l.port, 0)
		if err != nil {
			return fmt.Errorf("tcprep: re-listen :%d: %w", l.port, err)
		}
		l.real = real
	}
	// Finish teardown of connections the replayed application had already
	// closed but whose FINs the dead primary never (visibly) completed.
	for _, lc := range s.sec.table.conns {
		if lc.appClosed && lc.live != nil {
			conn := lc.live
			s.ns.Kernel().Spawn("ft-reclose", func(tk *kernel.Task) {
				_ = conn.Close(tk)
			})
		}
	}
	s.stack = stack
	s.liveQ.WakeAll(0)
	return nil
}

// AdoptPrimary installs a recording primary on a promoted socket layer, so
// connections accepted after failover keep announcing their det-log socket
// bindings — into the connection table while detached, and onto the sync
// ring once a rejoining backup attaches.
func (s *Sockets) AdoptPrimary(p *Primary) { s.prim = p }

// Stack returns the live stack (nil on an unpromoted secondary).
func (s *Sockets) Stack() *tcpstack.Stack { return s.stack }
