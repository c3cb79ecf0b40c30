package oracle

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/memcached"
	"repro/internal/apps/mongoose"
	"repro/internal/apps/pbzip2"
	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// App is one workload a scenario runs. Config sets what its deployment
// needs before the scenario's shape; Start launches it on the fresh
// deployment and its client, if it has one, and returns what the run showed
// the outside world, read once the run is over. Serves marks a server whose
// mains never return: the run ends when it goes quiet (Sim.Run), and an
// unfinished client shows in the output instead of as a *core.HangError
// from Wait. Restorable apps can run with epoch checkpoints.
type App struct {
	Name       string
	Serves     bool
	Restorable bool
	Config     core.Option
	Start      func(sys *core.System, sc Scenario) (output func() (string, error), err error)
}

// Apps are the scenario workloads, by name.
var Apps = map[string]App{"download": Download, "restream": Restream, "mongoose": Mongoose, "memcached": Memcached, "pbzip2": PBZIP2, "condlock": CondLock}

// quiet is the sweeps' deployment: kernels without idle wake-ups, so a run
// goes quiet once its work is done, a 1 s NIC driver reload, a 3 s repair
// before a rejoin, and tracing on for the oracle to read.
func quiet(c *core.Config) {
	c.Kernel.IdleWakeMin, c.Kernel.IdleWakeMax = 0, 0
	c.NICDriverLoadTime, c.RejoinDelay, c.Obs.Trace = time.Second, 3*time.Second, true
}

// Download is the system as shipped — the idle model, the paper's 5 s
// driver reload and 10 s repair — serving the restream pattern (Size bytes,
// 32 KiB segments) to a wget over GigE that checks every byte and samples
// its rate every second, as Fig. 8 does. Its output is that series and the
// byte count; a damaged stream is an error. Its series reads the clock, so
// it has no never-failed twin to match: ftfuzz does not draw it.
var Download = App{"download", true, true, func(c *core.Config) { c.TCP.MSS = 32 << 10 }, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, err
	}
	cfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: int(sc.Size)}
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(cfg) }})
	var dl clients.DownloadStats
	clients.Download(client, cfg.Port, sc.Size, time.Second, &dl)
	return func() (string, error) {
		var out strings.Builder
		for _, s := range dl.Series {
			fmt.Fprintf(&out, "t=%5.0fs %8.0f Mb/s\n", s.At.Seconds(), s.Mbps())
		}
		fmt.Fprintf(&out, "\nreceived %d/%d bytes  complete=%v corrupted=%v", dl.Received, sc.Size, dl.Complete, dl.Corrupted)
		if !dl.Complete || dl.Corrupted {
			return out.String(), errors.New("client-visible stream was damaged")
		}
		return out.String(), nil
	}, nil
}}

// Restream streams Size bytes of the restream pattern, 256 KiB when Size is
// 0, to one StreamClient. It is single-threaded and restorable.
var Restream = App{"restream", true, true, quiet, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	cfg := restream.Config{Port: 80, Chunk: 64 << 10, Total: int(cmp.Or(sc.Size, 256<<10))}
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(cfg) }})
	return StreamClient(sys, sc.Ports)
}}

// StreamClient runs a client of the restream server on port 80 that checks
// every byte against the pattern. Its output is the byte count and the
// stream's FNV-1a hash, after a note of each divergence from the pattern
// and of an error other than the stream's end.
func StreamClient(sys *core.System, ports int) (func() (string, error), error) {
	return runClient(sys, ports, func(tk *kernel.Task, client *core.Client, out *strings.Builder) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		h, got, want := fnv.New64a(), 0, make([]byte, 64<<10)
		for err == nil {
			var data []byte
			if data, err = c.Recv(tk, 64<<10); err == nil {
				restream.Fill(want[:len(data)], got)
				if !bytes.Equal(data, want[:len(data)]) {
					fmt.Fprintf(out, "diverged from the pattern at offset %d; ", got)
				}
				h.Write(data)
				got += len(data)
			}
		}
		if !errors.Is(err, tcpstack.EOF) {
			fmt.Fprintf(out, "error: %v; ", err)
		}
		fmt.Fprintf(out, "%d B, fnv %x", got, h.Sum64())
	})
}

// Mongoose serves three sequential 10 KiB page requests.
var Mongoose = App{"mongoose", true, false, quiet, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	cfg := mongoose.Config{Port: 8080, Workers: sc.Workers, PageBytes: 10 << 10, CPULoad: 100 * time.Microsecond, AcceptCost: 300 * time.Microsecond}
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, cfg, &mongoose.Stats{})
	}})
	return runClient(sys, sc.Ports, func(tk *kernel.Task, client *core.Client, out *strings.Builder) {
		for range 3 {
			c, err := client.Stack.Connect(tk, client.ServerAddr(8080))
			if err != nil {
				fmt.Fprintf(out, "connect: %v", err)
				return
			}
			_, _ = c.Send(tk, []byte("GET / HTTP/1.0\r\n\r\n"))
			n, err := 0, error(nil)
			for data := []byte(nil); err == nil; data, err = c.Recv(tk, 64<<10) {
				n += len(data)
			}
			_ = c.Close(tk)
			fmt.Fprintf(out, "page %d B, %v; ", n, err)
		}
	})
}}

// Memcached serves one connection 24 alternating sets and gets: past the
// server's quick-ACK mode each request's ACK rides its reply, so a kill at a
// transfer between a request and its reply — the log transfer of the
// request's read, say — finds the primary owing that ACK.
var Memcached = App{"memcached", true, false, quiet, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	sys.Run(core.App{Name: "memcached", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		memcached.RunServer(th, socks, memcached.ServerConfig{Port: 11211, Workers: sc.Workers}, &memcached.ServerStats{})
	}})
	return runClient(sys, sc.Ports, func(tk *kernel.Task, client *core.Client, out *strings.Builder) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(11211))
		for i := 0; i < 24 && err == nil; i++ {
			cmd := fmt.Sprintf("set k%d value-%d\n", i/2, i)
			if i%2 == 1 {
				cmd = fmt.Sprintf("get k%d\n", i/2)
			}
			var reply []byte
			if _, err = c.Send(tk, []byte(cmd)); err == nil {
				reply, err = c.Recv(tk, 4096)
			}
			out.Write(reply)
		}
		if err != nil {
			fmt.Fprintf(out, "error: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("quit\n"))
		_ = c.Close(tk)
	})
}}

// PBZIP2 compresses four 25 KiB blocks; its output is what the replica
// active at the end wrote.
var PBZIP2 = App{"pbzip2", false, false, quiet, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize, cfg.MaxBlocks, cfg.Workers, cfg.QueueCap = 25<<10, 4, sc.Workers, 4
	stats := map[*replication.Namespace]*pbzip2.Stats{}
	sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		st := &pbzip2.Stats{}
		stats[th.NS()] = st
		pbzip2.Run(th, cfg, st)
	}})
	return func() (string, error) {
		st := stats[sys.Active().NS]
		if st == nil {
			return "no run on the active replica", nil
		}
		return fmt.Sprintf("%d blocks, checksum %x (want %x), done %v", st.Blocks, st.Checksum, pbzip2.ExpectChecksum(cfg), st.Done), nil
	}, nil
}}

// CondLock runs the synchronization the other apps do not: workers take
// items off a bounded queue under a mutex they try before they block on,
// waiting for items with timed condition waits that expire as often as
// they are signaled, and fold each into a total under a reader-writer lock
// they try for writing (holding it across some work, so with two workers
// or more a WrLock parks), then for reading. Its output, what the replica
// active at the end counted, is the same however the tries and timeouts
// fell.
var CondLock = App{"condlock", false, false, quiet, func(sys *core.System, sc Scenario) (func() (string, error), error) {
	const items = 48
	type tally struct{ taken, sum int }
	tallies := map[*replication.Namespace]*tally{}
	sys.Run(core.App{Name: "condlock", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		lib, ns := th.Lib(), th.NS()
		mu, rw, cond := lib.NewMutex(), lib.NewRWLock(), lib.NewCond()
		tl := &tally{}
		tallies[ns] = tl
		var queue []int
		produced := 0
		lock := func(t *kernel.Task) {
			if !mu.TryLock(t) {
				mu.Lock(t)
			}
		}
		var ths []*replication.Thread
		for range sc.Workers {
			ths = append(ths, ns.SpawnThread(th, "taker", func(w *replication.Thread) {
				t := w.Task()
				for {
					lock(t)
					for len(queue) == 0 && produced < items {
						cond.TimedWait(t, mu, 150*time.Microsecond)
					}
					if len(queue) == 0 {
						mu.Unlock(t)
						return
					}
					v := queue[0]
					queue = queue[1:]
					mu.Unlock(t)
					t.Compute(20 * time.Microsecond)
					if !rw.TryWrLock(t) {
						rw.WrLock(t)
					}
					tl.taken, tl.sum = tl.taken+1, tl.sum+v
					t.Compute(100 * time.Microsecond) // held across work: another taker's WrLock parks
					rw.WrUnlock(t)
					if rw.TryRdLock(t) {
						rw.RdUnlock(t)
					}
				}
			}))
		}
		t := th.Task()
		for i := 1; i <= items; i++ {
			t.Compute(time.Duration(40+i%5*60) * time.Microsecond)
			lock(t)
			queue, produced = append(queue, i), produced+1
			cond.Signal(t)
			mu.Unlock(t)
		}
		lock(t)
		cond.Broadcast(t)
		mu.Unlock(t)
		for _, w := range ths {
			th.Join(w)
		}
	}})
	return func() (string, error) {
		tl := tallies[sys.Active().NS]
		if tl == nil {
			return "no run on the active replica", nil
		}
		return fmt.Sprintf("%d items, sum %d", tl.taken, tl.sum), nil
	}, nil
}}

// runClient attaches a 100 Mb/s client link and runs body on the client
// machine; the returned output is what body wrote.
func runClient(sys *core.System, ports int, body func(*kernel.Task, *core.Client, *strings.Builder)) (func() (string, error), error) {
	client, err := sys.AttachNetwork(simnet.LinkConfig{BitsPerSec: 100e6, Latency: 100 * time.Microsecond})
	if err != nil {
		return nil, err
	}
	if ports > 0 {
		client.Stack.SetPortRange(40000, 40000+ports-1)
	}
	var out strings.Builder
	client.Kernel.Spawn("client", func(tk *kernel.Task) { body(tk, client, &out) })
	return func() (string, error) { return out.String(), nil }, nil
}
