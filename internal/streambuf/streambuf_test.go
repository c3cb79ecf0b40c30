package streambuf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestWindowMatchesSliceModel walks a window and a plain []byte through
// the same seeded sequence of Append / Discard / read-at-offset / Set and
// compares them byte for byte after every step. Sizes span empty, one
// byte, exactly-full (the capacity the window happens to have) and
// multi-MiB, with and without a pool.
func TestWindowMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool *Pool
		if seed%2 == 0 {
			pool = new(Pool)
		}
		var w, other Window
		w.Init(pool)
		other.Init(pool) // a second user of the pool: arrays migrate between the two
		var model []byte
		next := byte(seed)
		gen := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				next = next*167 + 13
				p[i] = next
			}
			return p
		}
		size := func() int {
			switch r := rng.Intn(200); {
			case r == 0:
				return 1<<20 + rng.Intn(3<<20) // multi-MiB
			case r < 20:
				return 0
			case r < 40:
				return 1
			case r < 60:
				return cap(w.buf) - len(w.buf) // exactly fills the array
			default:
				return rng.Intn(4096)
			}
		}
		for step := 0; step < 10000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				p := gen(size())
				w.Append(p)
				model = append(model, p...)
			case op < 85:
				n := 0
				if len(model) > 0 {
					switch rng.Intn(4) {
					case 0:
						n = len(model) // drain
					case 1:
						n = 1
					default:
						n = rng.Intn(len(model) + 1)
					}
				}
				w.Discard(n)
				model = model[n:]
			case op < 97:
				if len(model) > 0 {
					off := rng.Intn(len(model))
					n := rng.Intn(len(model) - off + 1)
					if got := w.Bytes()[off : off+n]; !bytes.Equal(got, model[off:off+n]) {
						t.Fatalf("seed %d step %d: read [%d,+%d) differs from the model", seed, step, off, n)
					}
				}
			case op < 99:
				p := gen(size() % (64 << 10))
				w.Set(p)
				model = append([]byte(nil), p...)
			default:
				// Churn the shared pool from another window.
				other.Append(gen(rng.Intn(8192)))
				other.Discard(other.Len())
			}
			if w.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model has %d", seed, step, w.Len(), len(model))
			}
			if !bytes.Equal(w.Bytes(), model) {
				t.Fatalf("seed %d step %d: contents differ from the model (%d bytes)", seed, step, len(model))
			}
		}
	}
}

// TestSteadyWindowAllocatesNothing pins the two steady states the TCP path
// lives in: a nearly full window that appends as much as it discards (the
// bulk sender: 255 KiB live, one segment acked at a time), and a window
// that drains to empty and refills from its pool (request/response).
func TestSteadyWindowAllocatesNothing(t *testing.T) {
	seg := make([]byte, 1448)
	var bulk Window
	bulk.Init(new(Pool))
	for bulk.Len() < 255<<10 {
		bulk.Append(seg)
	}
	for i := 0; i < 1000; i++ { // let the array reach its steady capacity
		bulk.Discard(len(seg))
		bulk.Append(seg)
	}
	if n := testing.AllocsPerRun(1000, func() {
		bulk.Discard(len(seg))
		bulk.Append(seg)
	}); n != 0 {
		t.Errorf("append+discard at a steady 255 KiB window: %v allocs/op, want 0", n)
	}
	if c := cap(bulk.buf); c > 1<<20 {
		t.Errorf("steady 255 KiB window grew its array to %d bytes", c)
	}

	var rr Window
	rr.Init(new(Pool))
	cycle := func() {
		for i := 0; i < 7; i++ {
			rr.Append(seg)
		}
		rr.Discard(rr.Len())
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("fill-and-drain through a warm pool: %v allocs/op, want 0", n)
	}
	if rr.buf != nil {
		t.Error("a drained window still holds its backing array")
	}
}

// TestLenderReusesItsArray: a lender copies into one array for as long as
// the bytes fit, swaps it for a larger one from the pool when they do not,
// and gives it back on Reclaim — so lending through a warm pool, the shape
// of a connection's Recvs and its Close, allocates nothing.
func TestLenderReusesItsArray(t *testing.T) {
	pool := new(Pool)
	var l Lender
	l.Init(pool)
	small, big := bytes.Repeat([]byte("s"), 300), bytes.Repeat([]byte("b"), 5000)
	first := l.Lend(small)
	if !bytes.Equal(first, small) || !bytes.Equal(l.Lend(small[:10]), small[:10]) || &first[0] != &l.buf[0] {
		t.Fatal("a lend that fits does not reuse the array in place")
	}
	if got := l.Lend(big); !bytes.Equal(got, big) || cap(got) != 8192 {
		t.Fatalf("lend of %d bytes: %d bytes in a %d-byte array", len(big), len(got), cap(got))
	}
	l.Reclaim()
	if l.buf != nil || len(pool.free[9]) != 1 || len(pool.free[13]) != 1 {
		t.Fatal("the arrays did not go back to the pool")
	}
	cycle := func() {
		l.Lend(small)
		l.Lend(big)
		l.Reclaim()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("lend, lend larger, reclaim through a warm pool: %v allocs/op, want 0", n)
	}
}

// TestAppendMovesEachByteOnce guards the amortised bound: a compaction
// policy that slides the window on every append when it is nearly full is
// quadratic in host time even though it allocates nothing.
func TestAppendMovesEachByteOnce(t *testing.T) {
	seg := make([]byte, 1448)
	var w Window
	w.Init(new(Pool))
	for w.Len() < 255<<10 {
		w.Append(seg)
	}
	moved, appended := 0, 0
	for i := 0; i < 20000; i++ {
		w.Discard(len(seg))
		if len(w.buf)+len(seg) > cap(w.buf) {
			moved += w.Len() // makeRoom will copy the live bytes once
		}
		w.Append(seg)
		appended += len(seg)
	}
	if moved > 2*appended {
		t.Errorf("moved %d bytes to append %d: not O(1) per appended byte", moved, appended)
	}
}
