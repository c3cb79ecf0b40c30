package memcached

import (
	"bytes"

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
//
// As memcached does, a connection reads into one reused buffer and parses
// its commands in place (conn.c: conn->rbuf, try_read_network,
// tokenize_command), a value lives in an item a replacing set of the same
// size class reuses (items.c: do_item_alloc, item_replace over slabs.c's
// classes), and a reply is assembled from the item into one reused write
// buffer (process_get_command's add_iov).
func RunServer(th *replication.Thread, socks *tcprep.Sockets, cfg ServerConfig, st *ServerStats) {
	if cfg.Port == 0 {
		cfg.Port = 11211
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	lib := th.Lib()
	lock := lib.NewRWLock()
	store := make(map[string]*item)
	mu := lib.NewMutex()
	cond := lib.NewCond()
	var backlog []*tcprep.Conn // backlog[head:] are accepted and not yet served
	head := 0

	for i := 0; i < cfg.Workers; i++ {
		th.NS().SpawnThread(th, "worker", func(w *replication.Thread) {
			t := w.Task()
			var cn conn
			for {
				mu.Lock(t)
				for head == len(backlog) {
					cond.Wait(t, mu)
				}
				c := backlog[head]
				backlog, head = sim.PopFront(backlog, head)
				mu.Unlock(t)
				cn.serve(w, c, lock, store, st)
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

// item is a stored value in memory of its size class: a power of two of at
// least minItem bytes, which a set of a value of the same class reuses.
type item struct{ val []byte }

const minItem = 64

func sizeClass(n int) int {
	c := minItem
	for c < n {
		c *= 2
	}
	return c
}

// conn is a worker's connection state: the read buffer commands are parsed
// in, the write buffer replies are built in, both kept across connections.
type conn struct {
	rbuf, wbuf []byte
}

func (cn *conn) serve(w *replication.Thread, c *tcprep.Conn, lock *pthread.RWLock, store map[string]*item, st *ServerStats) {
	defer func() { _ = c.Close(w) }()
	t := w.Task()
	cn.rbuf = cn.rbuf[:0]
	for {
		data, err := c.Recv(w, 4096)
		if err != nil {
			return
		}
		cn.rbuf = append(cn.rbuf, data...)
		done := 0
		for {
			nl := bytes.IndexByte(cn.rbuf[done:], '\n')
			if nl < 0 {
				break
			}
			line := bytes.TrimSpace(cn.rbuf[done : done+nl])
			done += nl + 1
			if string(line) == "quit" {
				return
			}
			cn.wbuf = handleLine(t, cn.wbuf[:0], line, lock, store, st)
			if _, err := c.Send(w, cn.wbuf); err != nil {
				return
			}
		}
		cn.rbuf = cn.rbuf[:copy(cn.rbuf, cn.rbuf[done:])]
	}
}

// tokenize splits line at single spaces into at most len(tok) tokens, the
// last one the rest of the line, and returns how many it found.
func tokenize(line []byte, tok [][]byte) int {
	n := 0
	for n < len(tok)-1 {
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			break
		}
		tok[n], line, n = line[:sp], line[sp+1:], n+1
	}
	tok[n] = line
	return n + 1
}

// handleLine executes one protocol command under the store lock and
// appends its reply to reply.
func handleLine(t *kernel.Task, reply, line []byte, lock *pthread.RWLock, store map[string]*item, st *ServerStats) []byte {
	var tok [3][]byte
	switch n := tokenize(line, tok[:]); {
	case n == 3 && string(tok[0]) == "set":
		lock.WrLock(t)
		it := store[string(tok[1])]
		switch {
		case it == nil:
			it = &item{}
			store[string(tok[1])] = it
			fallthrough
		case sizeClass(len(tok[2])) != cap(it.val):
			it.val = make([]byte, 0, sizeClass(len(tok[2])))
		}
		it.val = append(it.val[:0], tok[2]...)
		st.Sets++
		lock.WrUnlock(t)
		return append(reply, "STORED\n"...)
	case n == 2 && string(tok[0]) == "get":
		lock.RdLock(t)
		it := store[string(tok[1])]
		st.Gets++
		if it != nil {
			st.Hits++
			reply = append(append(append(append(append(reply, "VALUE "...), tok[1]...), ' '), it.val...), "\nEND\n"...)
		}
		lock.RdUnlock(t)
		if it == nil {
			return append(reply, "END\n"...)
		}
		return reply
	default:
		return append(reply, "ERROR\n"...)
	}
}
