package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/memcached"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

var kvMixedN3 = workload{
	name: "kv-mixed-n3",
	why: "memcached, 16 persistent connections, 50/50 set/get of 1 KiB values, N=3 majority quorum, 4 det shards: " +
		"sets load the det log, gets the egress path; only workload on sharded replay and quorum commit",
	build: buildKVMixed,
}

// Nominal shape (scale 1): 16 closed-loop connections for 2 s of virtual
// time, the first 0.5 s excluded as warm-up.
const (
	kvConns     = 16
	kvKeys      = 64 // per connection; a connection only touches its own keys
	kvValueSize = 1 << 10
	kvWindow    = 2 * time.Second
	kvWarmUp    = 500 * time.Millisecond
	kvPort      = 11211
)

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func buildKVMixed(c buildCfg) (*deployment, error) {
	srv, err := boot(c, core.WithReplicaSet(3), core.WithDetShards(4))
	if err != nil {
		return nil, err
	}
	client, err := srv.attach(simnet.GigabitEthernet())
	if err != nil {
		return nil, err
	}
	served := make(map[*replication.Namespace]*memcached.ServerStats)
	srv.launch("memcached", func(th *replication.Thread, socks *tcprep.Sockets) {
		st := &memcached.ServerStats{}
		served[th.NS()] = st
		memcached.RunServer(th, socks, memcached.ServerConfig{Port: kvPort, Workers: 8}, st)
	})

	warm := sim.Time(c.scaled(kvWarmUp))
	end := sim.Time(c.scaled(kvWindow))
	out := &outcome{window: end.Sub(warm)}
	started, nextReq := 0, 0
	for i := 0; i < kvConns; i++ {
		lane := i + 1
		// Each connection draws its own command stream and value bytes from
		// the seed; a set stamps a version into the value so the model
		// always knows which write a get must return.
		rng := rand.New(rand.NewSource(c.seed*1000003 + int64(i)))
		values := make([][]byte, kvKeys)
		for k := range values {
			v := make([]byte, kvValueSize)
			for j := range v {
				v[j] = alnum[rng.Intn(len(alnum))]
			}
			values[k] = v
		}
		stagger := firstConnect + time.Duration(rng.Int63n(int64(time.Millisecond)))
		client.Kernel.Spawn("client", func(t *kernel.Task) {
			t.Sleep(stagger)
			t0 := t.Now()
			conn, err := client.Stack.Connect(t, client.ServerAddr(kvPort))
			if err != nil {
				out.failf("connection %d: %v", lane, err)
				return
			}
			c.rec.virtual("connect", lane, 0, 0, t0, t.Now())
			model := make([]string, kvKeys) // "" = never set
			version := 0
			for t.Now() < end {
				nextReq++
				started++
				req, start := nextReq, t.Now()
				k := rng.Intn(kvKeys)
				key := fmt.Sprintf("c%dk%d", lane, k)
				isSet := rng.Intn(2) == 0
				var cmd, want string
				if isSet {
					version++
					v := fmt.Sprintf("%08d%s", version, values[k][8:])
					cmd, want = "set "+key+" "+v+"\n", "STORED\n"
					model[k] = v
				} else {
					cmd, want = "get "+key+"\n", "END\n"
					if model[k] != "" {
						want = "VALUE " + key + " " + model[k] + "\nEND\n"
					}
				}
				reply, first, err := kvExchange(t, conn, cmd, len(want))
				out.clientBytes += int64(len(cmd) + len(reply))
				if err != nil {
					out.failf("command %d: %v", req, err)
					return // the stream is out of step; the rest of this connection's window counts as missing
				}
				if reply != want {
					out.failf("command %d: reply %.40q, want %.40q", req, reply, want)
					continue
				}
				now := t.Now()
				if c.rec != nil {
					root := c.rec.virtual("request", lane, req, 0, start, now)
					c.rec.virtual("first_byte", lane, req, root, start, first)
					c.rec.virtual("body", lane, req, root, first, now)
				}
				out.ops++
				if start >= warm && now < end {
					out.windowOps++
					d := now.Sub(start)
					out.lat = append(out.lat, d)
					if isSet {
						out.writeLat = append(out.writeLat, d)
					} else {
						out.readLat = append(out.readLat, d)
					}
				}
			}
			t1 := t.Now()
			_, _ = conn.Send(t, []byte("quit\n")) // best effort: the window is over
			_ = conn.Close(t)
			c.rec.virtual("close", lane, 0, 0, t1, t.Now())
		})
	}

	d := newDeployment(srv, end.Add(drainGrace))
	d.link = client.Link
	d.finish = func() *outcome {
		out.attempted = started
		out.failed = started - int(out.ops)
		if st := served[srv.recordingNS()]; st == nil || st.Gets+st.Sets < int(out.ops) {
			out.failf("recording replica served fewer commands than the clients completed")
		}
		return out
	}
	return d, nil
}

// kvExchange sends one command and reads exactly the n reply bytes the
// client-side model expects, reporting when the first of them arrived.
func kvExchange(t *kernel.Task, conn *tcpstack.Conn, cmd string, n int) (reply string, first sim.Time, err error) {
	if _, err := conn.Send(t, []byte(cmd)); err != nil {
		return "", t.Now(), err
	}
	buf := make([]byte, 0, n)
	for len(buf) < n {
		data, err := conn.Recv(t, n-len(buf))
		if err != nil {
			return string(buf), t.Now(), err
		}
		if len(buf) == 0 {
			first = t.Now()
		}
		buf = append(buf, data...)
	}
	return string(buf), first, nil
}
