// Package restream reimplements the paper's in-house streaming server
// (§4.4): a deliberately light-weight server that accepts one connection
// and transfers a large deterministic stream on it, so overheads are easy
// to break down. Every failover scenario runs it — Fig. 8, ftsim, the
// benchmark's stream-failover and the rejoin and epoch tests.
//
// Its replicated state (socket identities and transfer offset) is exposed
// as a snapshot, so epoch checkpointing can resume it on a
// checkpoint-seeded replica. It is the reference implementation of the
// core.AppState contract: every det section it issues is a pure function
// of the restored state, so a replica restored at offset K issues exactly
// the section sequence the primary's continuation recorded after the cut.
package restream

import (
	"encoding/binary"

	"repro/internal/replication"
	"repro/internal/tcprep"
)

// Config parameterizes the server.
type Config struct {
	// Port the server listens on.
	Port int
	// Chunk is the application write granularity.
	Chunk int
	// Total is the transfer size; the server serves one connection and
	// returns.
	Total int
}

// Fill writes the deterministic stream content for [off, off+len(b)) —
// the same function a verifying client uses. Matching content across
// replicas is what makes a replica's regenerated output buffer valid for
// retransmission after failover.
//
// Byte x of the stream is byte(x*31 + x>>8 + x>>16). Writing x = a + 256q
// with a < 256, that is byte(a*31 + k) with k = byte(q + q>>8): every
// 256-byte-aligned run of the stream is one of 256 periods, copied here from
// a table instead of computed byte by byte.
func Fill(b []byte, off int) {
	for len(b) > 0 {
		q := off >> 8
		n := copy(b, periods[byte(q+q>>8)][off&255:])
		b, off = b[n:], off+n
	}
}

// periods[k] is the stream period byte(a*31 + k), a = 0..255. It is computed
// once and never written.
var periods = func() (p [256][256]byte) {
	for k := range p {
		for a := range p[k] {
			p[k][a] = byte(a*31 + k)
		}
	}
	return p
}()

// Server is one replica's instance. The zero state (fresh boot) listens,
// accepts one connection, streams Total bytes, and closes; a restored
// state re-adopts its checkpointed sockets and resumes mid-transfer.
type Server struct {
	cfg Config

	// Replicated state, mutated only between det sections (each field
	// settles before the thread can park at the next section boundary, so
	// a quiesced cut never observes a half-applied transition).
	lid  uint64 // listener socket ID; 0 = not listening yet
	cid  uint64 // connection socket ID; 0 = not accepted yet
	off  int    // bytes sent
	done bool   // transfer complete, socket closed

	mut uint64 // cumulative dirtied bytes, for pre-copy sizing
}

// New builds a server instance; use the same Config on every replica.
func New(cfg Config) *Server {
	if cfg.Port == 0 {
		cfg.Port = 80
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 64 << 10
	}
	return &Server{cfg: cfg}
}

// Off reports the transfer offset (test observability).
func (s *Server) Off() int { return s.off }

// Done reports whether the transfer has completed.
func (s *Server) Done() bool { return s.done }

// Main runs the transfer. On a fresh replica every socket call enters a
// det section (recorded on the primary, replayed on backups); on a
// checkpoint-seeded replica the pre-cut sections are skipped by adopting
// the snapshotted socket identities instead of re-issuing listen/accept.
func (s *Server) Main(th *replication.Thread, socks *tcprep.Sockets) {
	if s.done {
		return
	}
	var l *tcprep.Listener
	if s.lid == 0 {
		nl, err := socks.Listen(th, s.cfg.Port, 8)
		if err != nil {
			return
		}
		l = nl
		s.lid = l.ID()
		s.mut += 8
	} else {
		l = socks.AdoptListener(s.cfg.Port, s.lid)
	}
	var c *tcprep.Conn
	if s.cid == 0 {
		nc, err := l.Accept(th)
		if err != nil {
			return
		}
		c = nc
		s.cid = c.ID()
		s.mut += 8
	} else {
		c = socks.AdoptConn(th.Task(), s.cid, 0)
	}
	buf := make([]byte, s.cfg.Chunk)
	for s.off < s.cfg.Total {
		n := s.cfg.Chunk
		if s.cfg.Total-s.off < n {
			n = s.cfg.Total - s.off
		}
		Fill(buf[:n], s.off)
		if _, err := c.Send(th, buf[:n]); err != nil {
			return
		}
		s.off += n
		s.mut += uint64(n)
	}
	_ = c.Close(th)
	s.done = true
	s.mut++
}

// Snapshot serializes the replicated state (called with the namespace
// quiesced at a section boundary).
func (s *Server) Snapshot() []byte {
	b := make([]byte, 33)
	binary.LittleEndian.PutUint64(b[0:], s.lid)
	binary.LittleEndian.PutUint64(b[8:], s.cid)
	binary.LittleEndian.PutUint64(b[16:], uint64(s.off))
	binary.LittleEndian.PutUint64(b[24:], s.mut)
	if s.done {
		b[32] = 1
	}
	return b
}

// Restore rebuilds the state from a Snapshot before Main starts on a
// checkpoint-seeded replica.
func (s *Server) Restore(data []byte) {
	if len(data) < 33 {
		return
	}
	s.lid = binary.LittleEndian.Uint64(data[0:])
	s.cid = binary.LittleEndian.Uint64(data[8:])
	s.off = int(binary.LittleEndian.Uint64(data[16:]))
	s.mut = binary.LittleEndian.Uint64(data[24:])
	s.done = data[32] == 1
}

// Dirtied reports cumulative state bytes mutated since the instance
// started; the epoch pre-copy engine differences readings to size its
// converging passes.
func (s *Server) Dirtied() uint64 { return s.mut }
