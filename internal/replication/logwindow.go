package replication

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// logWindow is the retained suffix of the log, kept on both replicas: the n
// messages from log index base on. A tuple is kept as a varint record in buf
// (encodeTuple), which never moves a byte; an env or epoch message is kept
// whole on side behind a one-byte placeholder, sideGone counting those
// truncation dropped. base is zero until epoch truncation drops a verified
// prefix — or, on a backup seeded by SeedCheckpoint, the checkpoint's log
// index. bytes is a running sum of the retained messages' Size, so the gauge
// is O(1).
type logWindow struct {
	buf         sim.ByteLog
	side        []shm.Message
	sideGone, n int
	base        uint64
	first, last uint64 // the Seq_global before the first retained tuple, and the newest's
	bytes       int64
}

// A record is a header byte of these flags, then uvarints: the Seq_global
// delta (zigzag) unless recNext, ThreadSeq, ObjSeq, FTPid, Op, Obj, the Key
// unless a flag derives it, and the Outcome if recOutcome. A recSide record
// is the header alone.
const (
	recKeyObj  = 1 << iota // Key == Obj
	recKeySys              // Key == Op<<48 | Obj, an extended op's seqKey
	recNext                // Seq_global is the previous tuple's plus one
	recOutcome             // a nonzero Outcome follows
	recSide                // the next side message
	maxRecord  = 1 + 8*binary.MaxVarintLen64
)

// encodeTuple appends tu's record to dst, its Seq_global a delta from prev.
func encodeTuple(dst []byte, tu Tuple, prev uint64) []byte {
	h, at := byte(0), len(dst)
	dst = append(dst, 0)
	if tu.GlobalSeq == prev+1 {
		h |= recNext
	} else {
		dst = binary.AppendVarint(dst, int64(tu.GlobalSeq-prev))
	}
	for _, v := range [...]uint64{tu.ThreadSeq, tu.ObjSeq, uint64(tu.FTPid), uint64(tu.Op), tu.Obj} {
		dst = binary.AppendUvarint(dst, v)
	}
	switch tu.Key {
	case tu.Obj:
		h |= recKeyObj
	case uint64(tu.Op)<<48 | tu.Obj:
		h |= recKeySys
	default:
		dst = binary.AppendUvarint(dst, tu.Key)
	}
	if tu.Outcome != 0 {
		h |= recOutcome
		dst = binary.AppendUvarint(dst, tu.Outcome)
	}
	dst[at] = h
	return dst
}

func (w *logWindow) append(m shm.Message) {
	var rec [maxRecord]byte
	if m.Kind == msgTuple {
		tu := tupleOf(m)
		w.buf.Append(encodeTuple(rec[:0], tu, w.last))
		w.last = tu.GlobalSeq
	} else {
		w.side = append(w.side, m)
		w.buf.Append(append(rec[:0], recSide))
	}
	w.n++
	w.bytes += int64(m.Size)
}

// end is the log index one past the newest retained message.
func (w *logWindow) end() uint64 { return w.base + uint64(w.n) }

// winCursor reads the window from log index at, byte pos: the tuple before
// had Seq_global prev, the next side message is the side-th ever. It stays
// good while the window grows and truncation stays at or behind it.
type winCursor struct {
	at, prev uint64
	pos      sim.ByteCursor
	side     int
}

func (w *logWindow) cursor() winCursor {
	return winCursor{at: w.base, prev: w.first, pos: w.buf.CursorAt(w.buf.Start()), side: w.sideGone}
}

// next decodes the message at c, which must be below end, and advances c.
func (w *logWindow) next(c *winCursor) shm.Message {
	if c.at < w.base {
		panic(fmt.Sprintf("replication: log index %d read below the window base %d", c.at, w.base))
	}
	c.at++
	h, uv := w.buf.Next(&c.pos), func() uint64 { return w.buf.Uvarint(&c.pos) }
	if h&recSide != 0 {
		c.side++
		return w.side[c.side-1-w.sideGone]
	}
	tu := Tuple{GlobalSeq: c.prev + 1}
	if h&recNext == 0 {
		d := uv()
		tu.GlobalSeq = c.prev + uint64(int64(d>>1)^-int64(d&1))
	}
	tu.ThreadSeq, tu.ObjSeq, tu.FTPid, tu.Op, tu.Obj = uv(), uv(), int(uv()), pthread.Op(uv()), uv()
	switch {
	case h&recKeyObj != 0:
		tu.Key = tu.Obj
	case h&recKeySys != 0:
		tu.Key = uint64(tu.Op)<<48 | tu.Obj
	default:
		tu.Key = uv()
	}
	if h&recOutcome != 0 {
		tu.Outcome = uv()
	}
	c.prev = tu.GlobalSeq
	return tu.message()
}

// truncate drops and books the prefix below a verified epoch's marker at
// log index at, which stays first on every side. ok is false, nothing
// moved, for a marker past the window; moved is false for one behind it.
func (w *logWindow) truncate(epoch, at uint64, st *Stats, sc *obs.Scope) (moved, ok bool) {
	if at < w.base || at > w.end() {
		return false, at < w.base
	}
	c := w.cursor()
	for c.at < at {
		w.bytes -= int64(w.next(&c).Size)
	}
	n := at - w.base
	w.buf.DropFront(c.pos.At)
	w.side, w.sideGone = slices.Delete(w.side, 0, c.side-w.sideGone), c.side
	w.base, w.n, w.first = at, w.n-int(n), c.prev
	st.LogTruncated += n
	sc.Emit(obs.EpochTruncate, 0, int64(epoch), int64(n))
	return true, true
}

// rewrite turns the window in place into the messages keep returns true
// for, as it returns them. keep may only renumber Seq_global densely from
// first + 1, so no record grows and every write lands behind the read.
func (w *logWindow) rewrite(first uint64, keep func(shm.Message) (shm.Message, bool)) {
	rd, wr := w.cursor(), w.cursor()
	sides, kept := 0, 0
	w.bytes, w.first, w.last = 0, first, first
	var rec [maxRecord]byte
	for rd.at < w.end() {
		m, ok := keep(w.next(&rd))
		if !ok {
			continue
		}
		if m.Kind == msgTuple {
			tu := tupleOf(m)
			w.buf.Overwrite(&wr.pos, encodeTuple(rec[:0], tu, w.last))
			w.last = tu.GlobalSeq
		} else {
			w.side[sides], sides = m, sides+1
			w.buf.Overwrite(&wr.pos, append(rec[:0], recSide))
		}
		w.bytes += int64(m.Size)
		kept++
	}
	clear(w.side[sides:])
	w.side, w.n = w.side[:sides], kept
	w.buf.Truncate(wr.pos.At)
}
