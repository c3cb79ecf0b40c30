// Package pbzip2 reimplements the thread structure of the PBZIP2 parallel
// file compressor used in the paper's compute-performance evaluation
// (§4.1): a producer thread reads the input file and splits it into
// equal-sized blocks pushed into a shared queue; a configurable number of
// worker threads dequeue blocks, compress them, and push the results into
// an output queue; a writer thread reorders completed blocks and writes
// the compressed file. The queues are protected by Pthreads locks and the
// producer notifies consumers through condition variables — exactly the
// synchronization pattern whose replication cost Figure 4/5 measures.
//
// Compression itself is modelled as measured CPU time proportional to the
// block size (the replication overhead the paper studies comes from the
// synchronization ops, not from bzip2's arithmetic); block payloads carry
// a deterministic checksum so output integrity remains verifiable.
package pbzip2

import (
	"time"

	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Config parameterizes a compression run.
type Config struct {
	// FileSize is the input size (1 GB in the paper).
	FileSize int64
	// BlockSize is the split granularity — Figure 4's x-axis.
	BlockSize int
	// Workers is the number of compression threads (32 in the paper).
	Workers int
	// CompressRate is per-core compression speed in bytes/second
	// (bzip2-class: a few MB/s on the evaluation machine's cores).
	CompressRate float64
	// ReadRate / WriteRate bound the producer and writer threads.
	ReadRate, WriteRate float64
	// QueueCap is the shared queue capacity in blocks.
	QueueCap int
	// MaxBlocks truncates the run after this many blocks (0 = whole file);
	// benchmarks use it to bound simulated work per sweep point.
	MaxBlocks int
	// CommitEvery makes the writer request output commit every N written
	// blocks — modelling fsync/flush points on the compressed file. 0
	// disables it (the pure-compute configuration of Figure 4). The commit
	// is asynchronous: the writer keeps going and the wait shows up in the
	// recorder's commit-wait histogram, not in the block times.
	CommitEvery int
}

// DefaultConfig matches the paper's setup.
func DefaultConfig() Config {
	return Config{
		FileSize:     1 << 30,
		BlockSize:    100 << 10,
		Workers:      32,
		CompressRate: 3 << 20,
		ReadRate:     400 << 20,
		WriteRate:    400 << 20,
		QueueCap:     64,
	}
}

// Stats reports a run's outcome. BlockTimes records the completion time of
// every block (written-out order), from which burst and sustained
// throughput are derived.
type Stats struct {
	Blocks     int
	Checksum   uint64
	Done       bool
	FinishedAt sim.Time
	BlockTimes []sim.Time
}

// block is one unit of work.
type block struct {
	seq  int
	size int
	sum  uint64
}

// queue is PBZIP2's shared block queue: a bounded buffer protected by a
// Pthreads mutex with notFull/notEmpty condition variables. The consumer
// side broadcasts, so competing workers wake, race, and re-wait — the
// retry behaviour behind the super-linear message growth of Figure 5. The
// buffer is a fixed ring of capacity slots plus one spare, n of them full
// from head on, so pushing and popping never allocate.
//
// The spare slot is for the block the consumer wants next (the writer's
// next block in write order): its pusher never waits, as in PBZIP2, whose
// workers throttle by their distance from the writer. Without it a woken
// pusher can lose every freed slot to a pusher that never slept, and the
// writer stalls behind a worker starved of room for the one block it needs.
type queue struct {
	mu       *pthread.Mutex
	notEmpty *pthread.Cond
	notFull  *pthread.Cond
	buf      []*block
	head, n  int
	closed   bool
	want     int // the block seq the consumer waits for, -1 for none
}

func newQueue(lib *pthread.Lib, capacity int) *queue {
	return &queue{
		mu:       lib.NewMutex(),
		notEmpty: lib.NewCond(),
		notFull:  lib.NewCond(),
		buf:      make([]*block, capacity+1),
		want:     -1,
	}
}

func (q *queue) push(th *replication.Thread, b *block) {
	t := th.Task()
	q.mu.Lock(t)
	for q.n >= len(q.buf)-1 && b.seq != q.want {
		q.notFull.Wait(t, q.mu)
	}
	q.buf[(q.head+q.n)%len(q.buf)] = b
	q.n++
	q.notEmpty.Broadcast(t)
	q.mu.Unlock(t)
}

// pop returns the next block, or nil when the queue is closed and drained.
// want names the block the caller needs next (-1 for any): its pusher may
// take the spare slot.
func (q *queue) pop(th *replication.Thread, want int) *block {
	t := th.Task()
	q.mu.Lock(t)
	q.want = want
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait(t, q.mu)
	}
	if q.n == 0 {
		q.mu.Unlock(t)
		return nil
	}
	b := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal(t)
	q.mu.Unlock(t)
	return b
}

func (q *queue) close(th *replication.Thread) {
	t := th.Task()
	q.mu.Lock(t)
	q.closed = true
	q.notEmpty.Broadcast(t)
	q.mu.Unlock(t)
}

// checksum is the deterministic "compression" of a block's content.
func checksum(seq, size int) uint64 {
	x := uint64(seq)*0x9e3779b97f4a7c15 + uint64(size)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// Run executes the compressor as the replicated application's root thread.
func Run(th *replication.Thread, cfg Config, st *Stats) {
	lib := th.Lib()
	inQ := newQueue(lib, cfg.QueueCap)
	outQ := newQueue(lib, cfg.QueueCap)

	nBlocks := int((cfg.FileSize + int64(cfg.BlockSize) - 1) / int64(cfg.BlockSize))
	if cfg.MaxBlocks > 0 && nBlocks > cfg.MaxBlocks {
		nBlocks = cfg.MaxBlocks
	}

	producer := th.NS().SpawnThread(th, "producer", func(p *replication.Thread) {
		readTime := time.Duration(float64(cfg.BlockSize) / cfg.ReadRate * float64(time.Second))
		for seq := 0; seq < nBlocks; seq++ {
			p.Task().Compute(readTime)
			inQ.push(p, &block{seq: seq, size: cfg.BlockSize})
		}
		inQ.close(p)
	})

	var workers []*replication.Thread
	for i := 0; i < cfg.Workers; i++ {
		workers = append(workers, th.NS().SpawnThread(th, "worker", func(w *replication.Thread) {
			compress := time.Duration(float64(cfg.BlockSize) / cfg.CompressRate * float64(time.Second))
			for {
				b := inQ.pop(w, -1)
				if b == nil {
					return
				}
				w.Task().Compute(compress)
				b.sum = checksum(b.seq, b.size)
				outQ.push(w, b)
			}
		}))
	}

	writer := th.NS().SpawnThread(th, "writer", func(w *replication.Thread) {
		writeTime := time.Duration(float64(cfg.BlockSize) / cfg.WriteRate * float64(time.Second))
		reorder := make(map[int]*block)
		next := 0
		for next < nBlocks {
			b := outQ.pop(w, next)
			if b == nil {
				return
			}
			reorder[b.seq] = b
			for done, ok := reorder[next]; ok; done, ok = reorder[next] {
				delete(reorder, next)
				w.Task().Compute(writeTime)
				st.Checksum ^= done.sum
				st.Blocks++
				st.BlockTimes = append(st.BlockTimes, w.Task().Now())
				next++
				if cfg.CommitEvery > 0 && next%cfg.CommitEvery == 0 {
					w.NS().OnStable(func() {})
				}
			}
		}
	})

	th.Join(producer)
	for _, w := range workers {
		th.Join(w)
	}
	outQ.close(th)
	th.Join(writer)
	st.Done = true
	st.FinishedAt = th.Task().Now()
}

// ExpectChecksum returns the checksum a complete run must produce.
func ExpectChecksum(cfg Config) uint64 {
	nBlocks := int((cfg.FileSize + int64(cfg.BlockSize) - 1) / int64(cfg.BlockSize))
	if cfg.MaxBlocks > 0 && nBlocks > cfg.MaxBlocks {
		nBlocks = cfg.MaxBlocks
	}
	var sum uint64
	for seq := 0; seq < nBlocks; seq++ {
		sum ^= checksum(seq, cfg.BlockSize)
	}
	return sum
}
