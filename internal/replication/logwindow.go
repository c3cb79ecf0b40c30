package replication

import (
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// logWindow is the retained suffix of the log, kept on both replicas
// (Config.Rejoinable): msgs.At(i) is log message base+i. base is zero until
// epoch truncation starts dropping verified prefixes — or, on a backup
// seeded by SeedCheckpoint, the checkpoint's log index. bytes is the
// retained payload footprint, a running sum so the gauge is O(1).
type logWindow struct {
	msgs  sim.Log[shm.Message]
	base  uint64
	bytes int64
}

func (w *logWindow) append(m shm.Message) {
	w.msgs.Append(m)
	w.bytes += int64(m.Size)
}

// end is the absolute log index one past the newest retained message.
func (w *logWindow) end() uint64 { return w.base + uint64(w.msgs.Len()) }

// truncate drops the prefix below a verified epoch boundary — at is the
// absolute log index of the epoch's marker, which stays as the window's
// first message on both sides, keeping their index spaces aligned — and
// books it. Everything below a verified marker is subsumed by a checkpoint;
// above an unverified one it may be the only copy, so ok is false and
// nothing moves when at lies beyond the window. moved is false for a
// boundary the window is already past.
func (w *logWindow) truncate(epoch, at uint64, st *Stats, sc *obs.Scope) (moved, ok bool) {
	if at < w.base {
		return false, true
	}
	n := at - w.base
	if n > uint64(w.msgs.Len()) {
		return false, false
	}
	for i := 0; i < int(n); i++ {
		w.bytes -= int64(w.msgs.At(i).Size)
	}
	w.msgs.DropFront(int(n))
	w.base = at
	st.LogTruncated += n
	sc.Emit(obs.EpochTruncate, 0, int64(epoch), int64(n))
	return true, true
}
