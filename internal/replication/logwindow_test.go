package replication

import (
	"encoding/binary"
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pthread"
	"repro/internal/shm"
)

// all yields every retained message, oldest first, as it was sent.
func (w *logWindow) all() iter.Seq[shm.Message] {
	return func(yield func(shm.Message) bool) {
		for c := w.cursor(); c.at < w.end(); {
			if !yield(w.next(&c)) {
				return
			}
		}
	}
}

// windowOps reads the operations of a window model run from a byte string;
// past its end every draw is zero.
type windowOps struct{ b []byte }

func (o *windowOps) byte() byte {
	if len(o.b) == 0 {
		return 0
	}
	x := o.b[0]
	o.b = o.b[1:]
	return x
}

// u64 draws a field value, biased to the varint boundaries and the limits.
func (o *windowOps) u64(limit uint64) uint64 {
	var v uint64
	switch o.byte() % 8 {
	case 0:
	case 1, 2:
		v = uint64(o.byte())
	case 3:
		v = 1<<7 - 1 + uint64(o.byte()%3)
	case 4:
		v = limit - uint64(o.byte()%2)
	default:
		var w [8]byte
		for i := range w {
			w[i] = o.byte()
		}
		v = binary.LittleEndian.Uint64(w[:])
	}
	return min(v, limit)
}

func (o *windowOps) tuple(prev uint64) Tuple {
	tu := Tuple{GlobalSeq: prev + 1, ThreadSeq: o.u64(^uint64(0)), ObjSeq: o.u64(^uint64(0)),
		FTPid: int(o.u64(1<<(64-opBits) - 1)), Op: pthread.Op(o.u64(1<<opBits - 1)), Obj: o.u64(^uint64(0))}
	if o.byte()%4 == 0 {
		tu.GlobalSeq = o.u64(^uint64(0)) // a Lamport jump, either way
	}
	switch o.byte() % 4 {
	case 0:
		tu.Key = tu.Obj
	case 1:
		tu.Key = uint64(tu.Op)<<48 | tu.Obj
	default:
		tu.Key = o.u64(^uint64(0))
	}
	if o.byte()%2 == 0 {
		tu.Outcome = o.u64(^uint64(0)) // an error result is all ones
	}
	return tu
}

// runWindowModel drives a logWindow and a []shm.Message slice model through
// the same appends of tuples, env and epoch messages, truncations at epoch
// markers, promotion rewrites and a catch-up cursor reading behind the
// appends, and fails at the first point where they disagree.
func runWindowModel(t *testing.T, ops []byte) {
	o := &windowOps{ops}
	var w logWindow
	var model []shm.Message // log messages from base on
	var base, last uint64
	cur, curAt := w.cursor(), uint64(0)
	check := func(what string) {
		t.Helper()
		if w.end() != base+uint64(len(model)) || w.base != base {
			t.Fatalf("after %s: window [%d, %d), model [%d, %d)", what, w.base, w.end(), base, base+uint64(len(model)))
		}
		var bytes int64
		i := 0
		for m := range w.all() {
			if !sameMessage(m, model[i]) {
				t.Fatalf("after %s: message %d is %+v, want %+v", what, base+uint64(i), m, model[i])
			}
			bytes += int64(m.Size)
			i++
		}
		if i != len(model) || bytes != w.bytes {
			t.Fatalf("after %s: walked %d messages, %d B; want %d, %d B", what, i, bytes, len(model), w.bytes)
		}
	}
	for len(o.b) > 0 {
		switch op := o.byte() % 16; {
		case op < 10:
			tu := o.tuple(last)
			last = tu.GlobalSeq
			w.append(tu.message())
			model = append(model, tu.message())
		case op == 10:
			env := envMessage(map[string]string{"K": string(rune('a' + o.byte()%26))})
			w.append(env)
			model = append(model, env)
		case op == 11:
			ep := epochMessage(&EpochMark{Epoch: uint64(o.byte())}, 64+int(o.byte()))
			w.append(ep)
			model = append(model, ep)
		case op == 12:
			// Truncate at an epoch marker at or behind the cursor, or at the
			// end when the cursor is there.
			var cands []uint64
			for i, m := range model {
				if at := base + uint64(i); m.Kind == msgEpoch && at <= curAt {
					cands = append(cands, at)
				}
			}
			if curAt == w.end() {
				cands = append(cands, w.end())
			}
			if len(cands) == 0 {
				break
			}
			at := cands[int(o.byte())%len(cands)]
			var st Stats
			if moved, ok := w.truncate(1, at, &st, nil); !moved || !ok || st.LogTruncated != at-base {
				t.Fatalf("truncate at %d from %d: moved %v ok %v, %d truncated", at, base, moved, ok, st.LogTruncated)
			}
			model, base = model[at-base:], at
			if moved, ok := w.truncate(1, at-1, &Stats{}, nil); at > 0 && (moved || !ok) {
				t.Fatalf("truncate behind the base: moved %v ok %v", moved, ok)
			}
			if moved, ok := w.truncate(1, w.end()+1, &Stats{}, nil); moved || ok {
				t.Fatalf("truncate past the end: moved %v ok %v", moved, ok)
			}
			check("truncate")
		case op == 13:
			// The promotion rewrite: epoch markers and some tuples go, the
			// kept tuples renumbered densely from first.
			first, drop := o.u64(^uint64(0)), o.byte()
			n := first
			var kept []shm.Message
			i := 0
			w.rewrite(first, func(m shm.Message) (shm.Message, bool) {
				i++
				switch {
				case m.Kind == msgEpoch:
					return m, false
				case m.Kind == msgTuple && drop != 0 && i%int(drop) == 0:
					return m, false
				case m.Kind == msgTuple:
					n++
					m.W[wGlobalSeq] = n
				}
				kept = append(kept, m)
				return m, true
			})
			model, last = kept, n
			cur, curAt = w.cursor(), base
			check("rewrite")
		default:
			// The catch-up cursor reads a few messages.
			for k := o.byte() % 8; k > 0 && curAt < w.end(); k-- {
				if m := w.next(&cur); !sameMessage(m, model[curAt-base]) {
					t.Fatalf("cursor at %d read %+v, want %+v", curAt, m, model[curAt-base])
				}
				curAt++
			}
		}
	}
	check("the last op")
}

// sameMessage compares what a retained message keeps: a tuple's kind, size
// and words, a side message's kind, size and reference.
func sameMessage(a, b shm.Message) bool {
	return a.Kind == b.Kind && a.Size == b.Size && a.W == b.W && (a.Ref == nil) == (b.Ref == nil) &&
		(a.Ref == nil || reflect.ValueOf(a.Ref).Pointer() == reflect.ValueOf(b.Ref).Pointer())
}

// TestLogWindowMatchesSliceModel runs the window model on seeded operation
// strings: tuples with extreme field values (all-ones outcomes, wide keys,
// ft_pid at its limit, Lamport jumps), env and epoch side messages,
// truncation at markers, the promotion rewrite and a catch-up cursor.
func TestLogWindowMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 20000)
		rand.New(rand.NewSource(seed)).Read(ops)
		runWindowModel(t, ops)
	}
}

// FuzzLogWindow round-trips arbitrary operation strings through the window
// and its slice model.
func FuzzLogWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 11, 1, 64, 15, 7, 12, 0, 13, 0, 0, 1, 1, 0})
	f.Fuzz(runWindowModel)
}
