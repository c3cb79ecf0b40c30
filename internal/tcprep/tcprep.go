// Package tcprep implements FT-Linux's TCP-stack replication (§3.4),
// following the design of FT-TCP / Alvisi et al.: instead of replaying the
// highly non-deterministic kernel TCP stack, the primary keeps a
// synchronized copy of each replicated connection's *logical state* on the
// secondary, resolving TCP non-determinism at the points where it becomes
// observable:
//
//   - in-order input bytes are streamed to the secondary as the primary's
//     stack accepts them (no ACK covers bytes the secondary could lose);
//   - socket syscall results (read/accept/...) are recorded in the
//     deterministic-section log and replayed;
//   - output bytes are regenerated by the replica's own replay of the
//     application: only the client-acknowledged output offset is synced;
//   - every outgoing segment passes the output-commit gate (§3.5): it is
//     released only when the log messages it depends on are acknowledged,
//     except a pure ACK that a later segment of its connection supersedes,
//     which is dropped.
//
// Upon failover the logical states are promoted into real connections of
// the new primary's stack (tcpstack.Restore), indistinguishable to the
// client from the dead primary's stack.
//
// Deviation from the paper: the paper intercepts raw packets with Netfilter
// hooks just below the TCP layer; we interpose at the equivalent boundary
// with stack event callbacks (in-order-data-accepted, output-acked), the
// same information without TCP's duplicate filtering done twice. The
// ingress hook still drops data segments the sync ring has no room for.
package tcprep

import (
	"errors"
	"fmt"

	"repro/internal/shm"
	"repro/internal/tcpstack"
)

// Sync-ring message kinds (primary -> secondary). The per-segment kinds name
// their connection by a dense sync id (word 0), announced once, with the
// four-tuple — whose host string does not fit in words — by syncConnMeta.
// syncBind carries the four-tuple too: it must reach the backup even when the
// connection was reaped, and its id forgotten, before the accept.
const (
	syncConnMeta = iota + 1 // W: sync id, ISS, IRS; Ref: *ConnKey
	syncDataIn              // W: sync id, an absorbed syncAckOut's watermark (0: none); Data: in-order input bytes accepted by the primary's stack
	syncAckOut              // W: sync id, client-acknowledged output-stream offset
	syncPeerFin             // W: sync id; the client's FIN was accepted
	syncBind                // W: replicated socket ID (assigned in a det section at accept time); Ref: *ConnKey
	syncGone                // W: sync id; the connection was reaped on the primary
)

// Accounted ring footprints of the fixed-size kinds; a data-in update is
// dataInBytes plus its payload.
const (
	connMetaBytes = 48
	dataInBytes   = 32
	ackOutBytes   = 40
	peerFinBytes  = 32
	bindBytes     = 40
	goneBytes     = 32
)

// syncMessage lays out one fixed-size update: the connection's sync id plus
// up to two more words.
func syncMessage(kind, size int, id, a, b uint64) shm.Message {
	return shm.Message{Kind: kind, Size: size, W: [7]uint64{id, a, b}}
}

// ConnKey identifies a replicated connection by its four-tuple (the local
// host is implicit: the replicated service's address).
type ConnKey struct {
	LocalPort  int
	RemoteHost string
	RemotePort int
}

func (k ConnKey) String() string {
	return fmt.Sprintf(":%d<->%s:%d", k.LocalPort, k.RemoteHost, k.RemotePort)
}

func keyOf(c *tcpstack.Conn) ConnKey {
	r := c.RemoteAddr()
	return ConnKey{LocalPort: c.LocalAddr().Port, RemoteHost: r.Host, RemotePort: r.Port}
}

// Result encoding for replicated socket syscalls: the low bits carry the
// byte count, the top bits flag EOF / error classes.
const (
	resEOF    uint64 = 1 << 62
	resErr    uint64 = 1 << 63
	errReset  uint64 = 1
	errClosed uint64 = 2
	errOther  uint64 = 3
)

func encodeRes(n int, err error) uint64 {
	switch {
	case err == nil:
		return uint64(n)
	case errors.Is(err, tcpstack.EOF):
		return resEOF
	case errors.Is(err, tcpstack.ErrReset):
		return resErr | errReset
	case errors.Is(err, tcpstack.ErrClosed):
		return resErr | errClosed
	default:
		return resErr | errOther
	}
}

func decodeRes(v uint64) (int, error) {
	switch {
	case v&resErr != 0:
		switch v &^ resErr {
		case errReset:
			return 0, tcpstack.ErrReset
		case errClosed:
			return 0, tcpstack.ErrClosed
		default:
			return 0, errors.New("tcprep: remote syscall error")
		}
	case v&resEOF != 0:
		return 0, tcpstack.EOF
	default:
		return int(v), nil
	}
}
