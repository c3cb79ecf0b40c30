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

// TestTapeMatchesSliceModel appends seeded runs of 0 to 70 KiB to a tape and
// a plain []byte, and lends, gathers and clones seeded ranges — across chunk
// boundaries, empty, whole — comparing them byte for byte. Every view Append
// returned must still read its bytes after thousands of later appends: the
// sync update hands it on instead of a copy.
func TestTapeMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var slab *Slab
		if seed%2 == 0 {
			slab = new(Slab)
		}
		var tape, other Tape
		tape.Init(slab)
		other.Init(slab) // a second tape carving the same slab
		var l Lender
		l.Init(new(Pool))
		var model []byte
		type view struct {
			off int
			b   []byte
		}
		var views []view
		next := byte(seed)
		for step := 0; step < 3000; step++ {
			if rng.Intn(3) > 0 || tape.Len() == 0 {
				n := rng.Intn(64)
				switch r := rng.Intn(20); {
				case r == 0:
					n = rng.Intn(70<<10 + 1)
				case r < 4:
					n = rng.Intn(4 << 10)
				}
				p := make([]byte, n)
				for i := range p {
					next = next*167 + 13
					p[i] = next
				}
				off := tape.Len()
				v := tape.Append(p)
				other.Append(p[:len(p)/2])
				if !bytes.Equal(v, p) || cap(v) != len(v) {
					t.Fatalf("seed %d step %d: Append returned %d bytes (cap %d), not a view of its %d", seed, step, len(v), cap(v), len(p))
				}
				model = append(model, p...)
				if got := tape.Clone(off); !bytes.Equal(got, p) || (got == nil) != (len(p) == 0) {
					t.Fatalf("seed %d step %d: Clone(%d) = %d bytes, want the %d appended", seed, step, off, len(got), len(p))
				}
				views = append(views, view{off, v})
				continue
			}
			lo := rng.Intn(len(model) + 1)
			hi := lo + rng.Intn(min(len(model)-lo, 20<<10)+1)
			if got := l.LendTape(&tape, lo, hi); !bytes.Equal(got, model[lo:hi]) {
				t.Fatalf("seed %d step %d: lent [%d,%d) differs from the model", seed, step, lo, hi)
			}
			if got := tape.AppendTo([]byte("x"), lo, hi); got[0] != 'x' || !bytes.Equal(got[1:], model[lo:hi]) {
				t.Fatalf("seed %d step %d: gathered [%d,%d) differs from the model", seed, step, lo, hi)
			}
		}
		if got := l.LendTape(&tape, 0, len(model)); !bytes.Equal(got, model) {
			t.Fatalf("seed %d: the whole tape lent differs from the model", seed)
		}
		for i, v := range views {
			if !bytes.Equal(v.b, model[v.off:v.off+len(v.b)]) {
				t.Fatalf("seed %d: view %d of %d, at offset %d, changed after later appends", seed, i, len(views), v.off)
			}
		}
		if tape.Len() != len(model) {
			t.Fatalf("seed %d: Len %d, want %d", seed, tape.Len(), len(model))
		}
	}
}

// TestTapeChunksGrowAndNeverMove: a tape's chunks double from the first up
// to tapeMax, an append that fits no chunk of that size gets one of its own,
// and appending allocates one chunk at a time — never a copy of what is held.
func TestTapeChunksGrowAndNeverMove(t *testing.T) {
	var slab Slab
	var tape Tape
	tape.Init(&slab)
	first := tape.Append([]byte("GET / HTTP/1.1\r\n\r\n"))
	if cap(tape.tail) != tapeFirst {
		t.Fatalf("first chunk of %d bytes, want %d", cap(tape.tail), tapeFirst)
	}
	seg := make([]byte, 100)
	for tape.Len() < 1<<20 {
		tape.Append(seg)
	}
	tape.Append(make([]byte, 100<<10))
	want := tapeFirst
	for i, c := range tape.done {
		if i > 0 && c.off != tape.done[i-1].off+len(tape.done[i-1].b) {
			t.Fatalf("chunk %d starts at %d, not where chunk %d ends", i, c.off, i-1)
		}
		if cap(c.b) != want {
			t.Fatalf("chunk %d holds %d bytes, want %d", i, cap(c.b), want)
		}
		want = min(2*want, tapeMax)
	}
	if cap(tape.tail) != 100<<10 {
		t.Errorf("a 100 KiB append went to a chunk of %d bytes, want its own", cap(tape.tail))
	}
	if string(first) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("the first view reads %q after 1 MiB of appends", first)
	}
	n := testing.AllocsPerRun(1000, func() { tape.Append(seg) })
	if n != 0 {
		t.Errorf("a 100-byte append allocates %v times on average, want one %d-byte chunk per %d appends", n, tapeMax, tapeMax/len(seg))
	}
}
