package replication

import (
	"iter"
	"slices"

	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// logWindow is the retained suffix of the log, kept on both replicas:
// words.At(i) is log message base+i. A tuple is kept as its seven words (a
// tuple message sets nothing else); an env or epoch message is kept whole on
// side, at its log index, behind a placeholder. words is chunked and
// side is compacted in place, so truncation allocates nothing. base is zero
// until epoch truncation drops a verified prefix — or, on a backup seeded by
// SeedCheckpoint, the checkpoint's log index. bytes is a running sum of the
// retained messages' Size, so the gauge is O(1).
type logWindow struct {
	words sim.Log[[7]uint64]
	side  []sideMsg
	base  uint64
	bytes int64
}

type sideMsg struct {
	at uint64
	m  shm.Message
}

func (w *logWindow) append(m shm.Message) {
	if m.Kind != msgTuple {
		w.side = append(w.side, sideMsg{w.end(), m})
	}
	w.words.Append(m.W)
	w.bytes += int64(m.Size)
}

// end is the absolute log index one past the newest retained message.
func (w *logWindow) end() uint64 { return w.base + uint64(w.words.Len()) }

// all yields every retained message, oldest first, as it was sent.
func (w *logWindow) all() iter.Seq[shm.Message] {
	return func(yield func(shm.Message) bool) {
		for i, s := 0, 0; i < w.words.Len(); i++ {
			m := tupleMessage(*w.words.At(i))
			if s < len(w.side) && w.side[s].at == w.base+uint64(i) {
				m, s = w.side[s].m, s+1
			}
			if !yield(m) {
				return
			}
		}
	}
}

// truncate drops and books the prefix below a verified epoch boundary: at is
// the log index of the epoch's marker, which stays first on both sides,
// keeping their index spaces aligned. Below a verified marker a checkpoint
// subsumes the log; past the window it may be the only copy, so ok is false
// and nothing moves. moved is false for a boundary the window is past.
func (w *logWindow) truncate(epoch, at uint64, st *Stats, sc *obs.Scope) (moved, ok bool) {
	if at < w.base {
		return false, true
	}
	n := at - w.base
	if n > uint64(w.words.Len()) {
		return false, false
	}
	k := 0
	for ; k < len(w.side) && w.side[k].at < at; k++ {
		w.bytes -= int64(w.side[k].m.Size - tupleBytes)
	}
	w.side = slices.Delete(w.side, 0, k)
	w.words.DropFront(int(n))
	w.bytes -= int64(n) * tupleBytes
	w.base = at
	st.LogTruncated += n
	sc.Emit(obs.EpochTruncate, 0, int64(epoch), int64(n))
	return true, true
}
