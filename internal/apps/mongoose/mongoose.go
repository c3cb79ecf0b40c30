// Package mongoose reimplements the thread structure of the Mongoose web
// server used in the paper's network-I/O evaluation (§4.2): one listening
// thread accepts client connections and delegates them to a pool of worker
// threads through a shared queue protected by a Pthreads lock and a
// condition variable. Per §4.2, each request additionally runs an
// artificial CPU loop, modelling per-request application computation.
package mongoose

import (
	"strconv"
	"time"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// Config parameterizes the server.
type Config struct {
	// Port the server listens on.
	Port int
	// Workers is the worker-pool size (32 in §4.2, matching the cores).
	Workers int
	// PageBytes is the static page size served (10 KB in the paper).
	PageBytes int
	// CPULoad is the artificial per-request computation; Figure 6's x-axis
	// doubles it at every step.
	CPULoad time.Duration
	// AcceptCost is the listening thread's serial per-connection work
	// (accept, socket setup, dispatch) — the master thread is Mongoose's
	// own scalability ceiling.
	AcceptCost time.Duration
}

// DefaultConfig matches the paper's setup at CPU-load step 0.
func DefaultConfig() Config {
	return Config{
		Port:       8080,
		Workers:    32,
		PageBytes:  10 << 10,
		CPULoad:    100 * time.Microsecond,
		AcceptCost: 300 * time.Microsecond,
	}
}

// Stats reports served requests.
type Stats struct {
	Accepted int
	Served   int
	Errors   int
}

// Run executes the web server as the replicated application's root thread.
// It serves until its kernel dies (servers run forever).
func Run(th *replication.Thread, socks *tcprep.Sockets, cfg Config, st *Stats) {
	lib := th.Lib()
	mu := lib.NewMutex()
	cond := lib.NewCond()
	var backlog []*tcprep.Conn // backlog[head:] are accepted and not yet served
	head := 0

	page := buildPage(cfg.PageBytes)

	for i := 0; i < cfg.Workers; i++ {
		th.NS().SpawnThread(th, "worker", func(w *replication.Thread) {
			t := w.Task()
			for {
				mu.Lock(t)
				for head == len(backlog) {
					cond.Wait(t, mu)
				}
				c := backlog[head]
				backlog, head = sim.PopFront(backlog, head)
				mu.Unlock(t)
				serve(w, c, cfg, page, st)
			}
		})
	}

	l, err := socks.Listen(th, cfg.Port, 128)
	if err != nil {
		return
	}
	for {
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		st.Accepted++
		t := th.Task()
		if cfg.AcceptCost > 0 {
			t.Compute(cfg.AcceptCost)
		}
		mu.Lock(t)
		backlog = append(backlog, c)
		cond.Signal(t)
		mu.Unlock(t)
	}
}

func serve(w *replication.Thread, c *tcprep.Conn, cfg Config, page []byte, st *Stats) {
	t := w.Task()
	if _, err := c.Recv(w, 4096); err != nil {
		st.Errors++
		_ = c.Close(w)
		return
	}
	if cfg.CPULoad > 0 {
		t.Compute(cfg.CPULoad)
	}
	if _, err := c.Send(w, page); err != nil {
		st.Errors++
		_ = c.Close(w)
		return
	}
	_ = c.Close(w)
	st.Served++
}

// buildPage renders a deterministic HTTP response of the configured size.
func buildPage(bytes int) []byte {
	head := "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(bytes) + "\r\n\r\n"
	page := make([]byte, 0, len(head)+bytes)
	page = append(page, head...)
	for i := 0; i < bytes; i++ {
		page = append(page, byte('A'+i%26))
	}
	return page
}

// PageSize reports the full response size for a config (header + body),
// which clients use to know when a response is complete.
func PageSize(cfg Config) int { return len(buildPage(cfg.PageBytes)) }
