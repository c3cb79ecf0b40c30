package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestByteLogMatchesSliceModel drives a ByteLog and a plain byte slice
// through the same appends, front drops, back truncations, reads and
// overwrites, with a cursor that keeps reading across appends and drops
// behind it, and checks the chunk layout after every step: every chunk but
// the last full, sizes doubling up to byteChunkMax, no new chunk allocated
// with a spare at hand.
func TestByteLogMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l ByteLog
		var model []byte // the bytes held, from stream offset base on
		var base int64
		cur := l.CursorAt(0)
		for step := 0; step < 20000; step++ {
			end := base + int64(len(model))
			switch r := rng.Intn(100); {
			case r < 2 && cur.At > base:
				at := base + rng.Int63n(cur.At-base+1)
				l.DropFront(at)
				model, base = model[at-base:], at
			case r < 4:
				at := base + rng.Int63n(int64(len(model))+1)
				l.Truncate(at)
				model = model[:at-base]
				if cur.At > at {
					cur = l.CursorAt(at)
				}
			case r < 10 && cur.At < end:
				k := rng.Int63n(min(end-cur.At, 40) + 1)
				p := make([]byte, k)
				rng.Read(p)
				copy(model[cur.At-base:], p)
				l.Overwrite(&cur, p)
			case r < 40:
				for k := rng.Intn(300); k > 0 && cur.At < end; k-- {
					at := cur.At
					if got := l.Next(&cur); got != model[at-base] {
						t.Fatalf("seed %d step %d: byte %d is %d, want %d", seed, step, at, got, model[at-base])
					}
				}
			default:
				p := make([]byte, rng.Intn(200))
				rng.Read(p)
				last := l.chunks[max(len(l.chunks)-1, 0):]
				needs := len(last) > 0 && cap(last[0].b) == byteChunkMax && len(p) > cap(last[0].b)-len(last[0].b)
				spare := l.spare
				l.Append(p)
				model = append(model, p...)
				if needs && spare != nil && l.spare != nil {
					t.Fatalf("seed %d step %d: a new chunk was allocated with a spare at hand", seed, step)
				}
			}
			if l.Start() != base || l.End() != base+int64(len(model)) {
				t.Fatalf("seed %d step %d: log holds [%d, %d), model [%d, %d)", seed, step, l.Start(), l.End(), base, base+int64(len(model)))
			}
			held := 0
			for i, c := range l.chunks {
				held += cap(c.b)
				if i > 0 && (c.at != l.chunks[i-1].at+int64(cap(l.chunks[i-1].b)) || cap(c.b) > byteChunkMax ||
					cap(c.b) != byteChunkMax && cap(c.b) != 2*cap(l.chunks[i-1].b)) {
					t.Fatalf("seed %d step %d: chunk %d at %d of %d B follows one at %d of %d B",
						seed, step, i, c.at, cap(c.b), l.chunks[i-1].at, cap(l.chunks[i-1].b))
				}
				if i < len(l.chunks)-1 && len(c.b) != cap(c.b) {
					t.Fatalf("seed %d step %d: chunk %d of %d is not full", seed, step, i, len(l.chunks))
				}
			}
			if held > len(model)+3*byteChunkMax {
				t.Fatalf("seed %d step %d: %d B of chunks hold %d B", seed, step, held, len(model))
			}
			if step%100 == 0 && len(model) > 0 {
				at := base + rng.Int63n(int64(len(model)))
				c := l.CursorAt(at)
				got := make([]byte, min(int64(len(model))-(at-base), 64))
				for i := range got {
					got[i] = l.Next(&c)
				}
				if !bytes.Equal(got, model[at-base:at-base+int64(len(got))]) {
					t.Fatalf("seed %d step %d: %d bytes read from %d differ from the model's", seed, step, len(got), at)
				}
			}
		}
	}
}
