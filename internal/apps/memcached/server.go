package memcached

import (
	"strings"

	"repro/internal/kernel"

	"repro/internal/pthread"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// ServerConfig parameterizes the functional replicated key-value server.
type ServerConfig struct {
	Port    int
	Workers int
}

// ServerStats counts operations served.
type ServerStats struct {
	Gets, Sets, Hits int
}

// RunServer executes a small memcached-like text-protocol server
// ("set k v\n" / "get k\n") as a replicated application. The store is
// shared between workers and protected by an interposed rwlock, so its
// contents stay identical across replicas.
//
// Each of cfg.Workers workers serves one accepted connection until its
// client quits, so at most Workers connections are served at once: a
// client with more persistent connections than that (the benchmark's
// kv-mixed-n3 opens 16 against 8 workers) has the rest wait in the
// backlog until a served one closes.
func RunServer(th *replication.Thread, socks *tcprep.Sockets, cfg ServerConfig, st *ServerStats) {
	if cfg.Port == 0 {
		cfg.Port = 11211
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	lib := th.Lib()
	lock := lib.NewRWLock()
	store := make(map[string]string)
	mu := lib.NewMutex()
	cond := lib.NewCond()
	var backlog []*tcprep.Conn // backlog[head:] are accepted and not yet served
	head := 0

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
				serveConn(w, c, lock, store, st)
			}
		})
	}

	l, err := socks.Listen(th, cfg.Port, 64)
	if err != nil {
		return
	}
	for {
		c := l.Accept(th)
		t := th.Task()
		mu.Lock(t)
		backlog = append(backlog, c)
		cond.Signal(t)
		mu.Unlock(t)
	}
}

func serveConn(w *replication.Thread, c *tcprep.Conn, lock *pthread.RWLock, store map[string]string, st *ServerStats) {
	defer func() { _ = c.Close(w) }()
	t := w.Task()
	buf := ""
	for {
		data, err := c.Recv(w, 4096)
		if err != nil {
			return
		}
		buf += string(data)
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			line := strings.TrimSpace(buf[:nl])
			buf = buf[nl+1:]
			if line == "quit" {
				return
			}
			reply := handleLine(t, line, lock, store, st)
			if _, err := c.Send(w, []byte(reply)); err != nil {
				return
			}
		}
	}
}

// handleLine executes one protocol command under the store lock.
func handleLine(t *kernel.Task, line string, lock *pthread.RWLock, store map[string]string, st *ServerStats) string {
	fields := strings.SplitN(line, " ", 3)
	switch {
	case len(fields) == 3 && fields[0] == "set":
		lock.WrLock(t)
		store[fields[1]] = fields[2]
		st.Sets++
		lock.WrUnlock(t)
		return "STORED\n"
	case len(fields) == 2 && fields[0] == "get":
		lock.RdLock(t)
		v, ok := store[fields[1]]
		st.Gets++
		if ok {
			st.Hits++
		}
		lock.RdUnlock(t)
		if !ok {
			return "END\n"
		}
		return "VALUE " + fields[1] + " " + v + "\nEND\n"
	default:
		return "ERROR\n"
	}
}
