package main

import (
	"bytes"
	"errors"
	"math/rand"
	"time"

	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// firstConnect is how long every client waits before its first connect:
// a connect at t=0 races the server's Listen and is refused.
const firstConnect = 10 * time.Millisecond

// drainGrace is how long a run continues after the clients stop issuing,
// so that every request in flight completes or counts as failed.
const drainGrace = 500 * time.Millisecond

var webShort = workload{
	name: "web-short",
	why: "Mongoose, one TCP connection per 10 KiB request (Fig. 6 left edge): " +
		"connect sync, det sections and output commit on every op, so tcprep, replication, shm and tcpstack are all hot",
	build: buildWebShort,
}

// Nominal shape (scale 1): 100 closed-loop clients for 6 s of virtual
// time, the first 1.5 s excluded as warm-up.
const (
	webClients = 100
	webWindow  = 6 * time.Second
	webWarmUp  = 1500 * time.Millisecond
)

var (
	webRequest = []byte("GET /page HTTP/1.1\r\nHost: server\r\n\r\n")
	webStatus  = []byte("HTTP/1.1 200 OK\r\n")
)

func buildWebShort(c buildCfg) (*deployment, error) {
	srv, err := boot(c)
	if err != nil {
		return nil, err
	}
	client, err := srv.attach(simnet.GigabitEthernet())
	if err != nil {
		return nil, err
	}
	mcfg := mongoose.DefaultConfig() // 32 workers, 10 KiB page, 100 us CPU per request
	served := make(map[*replication.Namespace]*mongoose.Stats)
	srv.launch("mongoose", func(th *replication.Thread, socks *tcprep.Sockets) {
		st := &mongoose.Stats{}
		served[th.NS()] = st
		mongoose.Run(th, socks, mcfg, st)
	})

	warm := sim.Time(c.scaled(webWarmUp))
	end := sim.Time(c.scaled(webWindow))
	want := mongoose.PageSize(mcfg)
	out := &outcome{window: end.Sub(warm)}
	started, nextReq := 0, 0
	rng := rand.New(rand.NewSource(c.seed))
	for i := 0; i < webClients; i++ {
		lane := i + 1
		stagger := firstConnect + time.Duration(rng.Int63n(int64(time.Millisecond)))
		client.Kernel.Spawn("client", func(t *kernel.Task) {
			t.Sleep(stagger)
			for t.Now() < end {
				nextReq++
				started++
				req, start := nextReq, t.Now()
				got, status, ok := webRequestOnce(t, client, mcfg.Port, want, c.rec, lane, req)
				out.clientBytes += int64(len(webRequest) + got)
				switch {
				case !ok:
					out.failf("request %d: transport error after %d bytes", req, got)
				case got != want:
					out.failf("request %d: %d response bytes, want %d", req, got, want)
				case !status:
					out.failf("request %d: bad status line", req)
				default:
					out.ops++
					if start >= warm && t.Now() < end {
						out.windowOps++
						out.lat = append(out.lat, t.Now().Sub(start))
					}
				}
			}
		})
	}

	d := newDeployment(srv, end.Add(drainGrace))
	d.link = client.Link
	d.finish = func() *outcome {
		out.attempted = started
		out.failed = started - int(out.ops)
		if st := served[srv.recordingNS()]; st == nil || st.Served < int(out.ops) {
			out.failf("recording replica served fewer requests than the clients completed")
		}
		return out
	}
	return d, nil
}

// webRequestOnce performs one request on its own connection and records
// the four client-side phases as spans of the request: connect, first
// byte (request sent, first response bytes back), body, close.
func webRequestOnce(t *kernel.Task, client *core.Client, port, want int, rec *recorder, lane, req int) (got int, status, ok bool) {
	t0 := t.Now()
	conn, err := client.Stack.Connect(t, client.ServerAddr(port))
	if err != nil {
		return 0, false, false
	}
	t1 := t.Now()
	ok = true
	if _, err := conn.Send(t, webRequest); err != nil {
		ok = false
	}
	t2 := t1
	for ok && got < want {
		data, err := conn.Recv(t, 64<<10)
		if errors.Is(err, tcpstack.EOF) {
			break
		}
		if err != nil {
			ok = false
			break
		}
		if got == 0 {
			t2 = t.Now()
			status = bytes.HasPrefix(data, webStatus)
		}
		got += len(data)
	}
	t3 := t.Now()
	_ = conn.Close(t) // a FIN that cannot be sent shows as a failed next request, not here
	t4 := t.Now()
	if rec != nil {
		root := rec.virtual("request", lane, req, 0, t0, t4)
		rec.virtual("connect", lane, req, root, t0, t1)
		rec.virtual("first_byte", lane, req, root, t1, t2)
		rec.virtual("body", lane, req, root, t2, t3)
		rec.virtual("close", lane, req, root, t3, t4)
	}
	return got, status, ok
}
