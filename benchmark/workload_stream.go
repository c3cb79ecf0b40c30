package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

var streamFailover = workload{
	name: "stream-failover",
	why: "1 GiB download over GigE, primary killed at 4 s (Fig. 8): bulk egress bookkeeping, then failure detection, " +
		"failover, epoch cuts and checkpoint rejoin, which no other workload touches",
	build: buildStreamFailover,
}

// Nominal shape (scale 1): 1 GiB in 64 KiB application writes at a 32 KiB
// MSS; epoch checkpoints every 250 ms; the primary is fail-stopped at 4 s
// (plus a seeded phase within one heart-beat interval); the freed
// partition reboots 500 ms after failover; throughput is measured over
// [1 s, 4 s), before the fault.
const (
	streamTotal    = 1 << 30
	streamChunk    = 64 << 10
	streamMSS      = 32 << 10
	streamPort     = 80
	streamKillAt   = 4 * time.Second
	streamWarmUp   = 1 * time.Second
	streamEpoch    = 250 * time.Millisecond
	streamRejoinIn = 500 * time.Millisecond
	mib            = 1 << 20
)

func buildStreamFailover(c buildCfg) (*deployment, error) {
	tcp := tcpstack.DefaultParams()
	tcp.MSS = streamMSS
	srv, err := boot(c,
		core.WithTCP(tcp),
		core.WithEpochCheckpoints(streamEpoch, 0),
		core.WithRejoinDelay(streamRejoinIn),
	)
	if err != nil {
		return nil, err
	}
	client, err := srv.attach(simnet.GigabitEthernet())
	if err != nil {
		return nil, err
	}
	total := int(float64(streamTotal) * c.scale)
	scfg := restream.Config{Port: streamPort, Chunk: streamChunk, Total: total}
	sys := srv.sys
	if sys != nil {
		sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(scfg) }})
	} else {
		srv.launch("stream", restream.New(scfg).Main)
	}

	warm, measureEnd := sim.Time(c.scaled(streamWarmUp)), sim.Time(c.scaled(streamKillAt))
	phase := time.Duration(rand.New(rand.NewSource(c.seed)).Int63n(int64(10 * time.Millisecond)))
	killAt := measureEnd.Add(phase)

	var (
		verified, inWindow int64    // bytes whose content matched
		finishedAt         sim.Time // client holds every byte
		firstAfterLive     sim.Time // first verified bytes after the promotion
		healthyAt          sim.Time // replicated again, standby caught up
		clientErr          error
	)
	client.Kernel.Spawn("client", func(t *kernel.Task) {
		t.Sleep(firstConnect)
		t0 := t.Now()
		conn, err := client.Stack.Connect(t, client.ServerAddr(streamPort))
		if err != nil {
			clientErr = err
			return
		}
		c.rec.virtual("connect", 1, 0, 0, t0, t.Now())
		want := make([]byte, streamChunk)
		off, req := 0, 0
		for off < total {
			start := t.Now()
			data, err := conn.Recv(t, streamChunk)
			if err != nil {
				clientErr = err
				break
			}
			now := t.Now()
			req++
			c.rec.virtual("body", 1, req, 0, start, now)
			restream.Fill(want[:len(data)], off)
			if bytes.Equal(data, want[:len(data)]) {
				verified += int64(len(data))
				if now >= warm && now < measureEnd {
					inWindow += int64(len(data))
				}
				if firstAfterLive == 0 && sys != nil && sys.LiveAt != 0 && now >= sys.LiveAt {
					firstAfterLive = now
				}
			}
			off += len(data)
		}
		if off >= total {
			finishedAt = t.Now()
		}
		t1 := t.Now()
		_ = conn.Close(t)
		c.rec.virtual("close", 1, 0, 0, t1, t.Now())
	})

	out := &outcome{window: measureEnd.Sub(warm)}
	if sys == nil {
		// The baseline is only the throughput reference: it runs to the
		// instant the replicated run is killed.
		d := newDeployment(srv, measureEnd)
		d.link = client.Link
		d.finish = func() *outcome {
			out.ops = float64(verified) / mib
			out.windowOps = float64(inWindow) / mib
			return out
		}
		return d, nil
	}

	sys.InjectPrimaryFailure(killAt.Duration(), hw.CoreFailStop)
	// Healthy again: replicated state with the standby's replay head at the
	// active side's recorded frontier. Replay drains faster than the stream
	// records, so a millisecond poll sees the caught-up state reliably.
	var poll func()
	poll = func() {
		if sys.LiveAt != 0 && sys.State() == core.StateReplicated && sys.Standby() != nil &&
			sys.Active().NS.SeqGlobal() == sys.Standby().NS.ReplayHead() {
			healthyAt = sys.Sim.Now()
			return
		}
		sys.Sim.Schedule(time.Millisecond, poll)
	}
	sys.Sim.ScheduleAt(killAt, poll)

	d := newDeployment(srv, killAt.Add(6*time.Second+c.scaled(6*time.Second)))
	d.link = client.Link
	d.done = func() bool { return (finishedAt != 0 || clientErr != nil) && healthyAt != 0 }
	d.finish = func() *outcome {
		out.attempted = int(math.Ceil(float64(total) / mib))
		out.failed = int(math.Ceil(float64(int64(total)-verified) / mib))
		out.ops = float64(verified) / mib
		out.windowOps = float64(inWindow) / mib
		out.clientBytes = verified
		switch {
		case clientErr != nil:
			out.failf("client: %v after %d verified bytes", clientErr, verified)
		case finishedAt == 0:
			out.failf("client holds %d of %d bytes at the %v cap", verified, total, d.horizon)
		}
		if err := sys.RejoinErr(); err != nil {
			out.failf("rejoin: %v", err)
		}
		if sys.LiveAt == 0 || firstAfterLive == 0 {
			out.failf("no client byte after the failover (failed at %v, live at %v)", sys.FailedAt, sys.LiveAt)
			return out
		}
		if healthyAt == 0 || sys.State() != core.StateReplicated {
			out.failf("deployment is %v with the standby behind at the %v cap", sys.State(), d.horizon)
			return out
		}
		out.e2e = map[string]float64{
			"outage_s":     firstAfterLive.Sub(killAt).Seconds(),
			"rejoin_s":     healthyAt.Sub(sys.LiveAt).Seconds(),
			"completion_s": finishedAt.Seconds(),
		}
		failover := sys.LiveAt.Sub(sys.FailedAt)
		out.layer = map[string]float64{
			"failure.detect_ms":             ms(sys.FailedAt.Sub(killAt)),
			"core.failover_ms":              ms(failover),
			"core.driver_reload_share":      ratio(float64(sys.Cfg.NICDriverLoadTime), float64(failover)),
			"core.first_byte_after_live_ms": ms(firstAfterLive.Sub(sys.LiveAt)),
			"rejoin.catchup_msgs":           float64(sys.Standby().NS.Stats().LogMessages),
			"core.generation":               float64(sys.Generation()),
		}
		// The lifecycle scope's flight ring holds the resync even when the
		// full event stream is not retained.
		for _, ev := range sys.Obs.Scope("lifecycle").Recent() {
			if ev.Kind == obs.ResyncDone && ev.Arg >= 0 {
				out.layer["rejoin.resync_ms"] = ms(time.Duration(ev.Arg))
			}
		}
		return out
	}
	return d, nil
}
