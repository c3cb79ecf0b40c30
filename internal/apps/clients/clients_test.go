package clients_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

const port = 80

// baseline boots the unreplicated server machine serving app, and the
// client machine across a gigabit link.
func baseline(t *testing.T, app func(*replication.Thread, *tcprep.Sockets)) (*core.Baseline, *core.Client) {
	t.Helper()
	cfg := core.DefaultConfig(1)
	cfg.TCP.MSS = 32 << 10
	b, err := core.NewBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Sim.Shutdown)
	client, err := b.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	b.LaunchApp("server", nil, app)
	return b, client
}

// download runs Download of total bytes sampled every interval to the end.
func download(t *testing.T, app func(*replication.Thread, *tcprep.Sockets), total int, interval time.Duration) clients.DownloadStats {
	t.Helper()
	b, client := baseline(t, app)
	var dl clients.DownloadStats
	clients.Download(client, port, int64(total), interval, &dl)
	if err := b.Sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete || dl.Received != int64(total) {
		t.Fatalf("complete=%v after %d of %d bytes", dl.Complete, dl.Received, total)
	}
	return dl
}

// stalling serves one connection total bytes of restream.Fill content,
// pausing for stall after the first half, with the byte at flip inverted
// (none when flip < 0).
func stalling(total int, stall time.Duration, flip int) func(*replication.Thread, *tcprep.Sockets) {
	return func(th *replication.Thread, socks *tcprep.Sockets) {
		l, err := socks.Listen(th, port, 1)
		if err != nil {
			return
		}
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		data := make([]byte, total)
		restream.Fill(data, 0)
		if flip >= 0 {
			data[flip] ^= 0xff
		}
		if _, err := c.Send(th, data[:total/2]); err != nil {
			return
		}
		th.Task().Sleep(stall)
		if _, err := c.Send(th, data[total/2:]); err != nil {
			return
		}
		_ = c.Close(th)
	}
}

// TestDownloadSeries: against a restream server, the samples tile the
// transfer — every one but the last spans a full interval, back to back —
// and the last covers only the tail from the previous boundary to the
// finish, so its rate is over that span, not over a whole interval.
func TestDownloadSeries(t *testing.T) {
	const total, interval = 4 << 20, 10 * time.Millisecond
	server := restream.New(restream.Config{Port: port, Chunk: 256 << 10, Total: total})
	dl := download(t, server.Main, total, interval)
	if dl.Corrupted {
		t.Error("an intact stream read as corrupted")
	}
	series := dl.Series
	if len(series) < 3 {
		t.Fatalf("%d samples of a %v-interval series, want at least 3", len(series), interval)
	}
	var sum int64
	for i, s := range series {
		sum += s.Bytes
		if i == 0 || i == len(series)-1 {
			continue
		}
		if s.Span != interval || s.At.Sub(series[i-1].At) != interval {
			t.Errorf("sample %d at %v spans %v after one at %v, want full back-to-back intervals", i, s.At, s.Span, series[i-1].At)
		}
	}
	if sum != dl.Received {
		t.Errorf("samples hold %d bytes, the download received %d", sum, dl.Received)
	}
	tail, prev := series[len(series)-1], series[len(series)-2]
	if tail.At != dl.FinishedAt || tail.Span <= 0 || tail.Span >= interval || tail.At.Add(-tail.Span) != prev.At {
		t.Errorf("tail sample at %v spans %v after one at %v; want it to end at the finish %v and start at %v",
			tail.At, tail.Span, prev.At, dl.FinishedAt, prev.At)
	}
	if want := float64(tail.Bytes) * 8 / tail.Span.Seconds() / 1e6; tail.Mbps() != want {
		t.Errorf("tail rate %v Mb/s, want %v: its bytes over its own span", tail.Mbps(), want)
	}
	// The link runs at line rate to the end: a tail rate over a whole
	// interval would read well under the mid-transfer one.
	if full := series[1].Mbps(); math.Abs(tail.Mbps()-full) > full/10 {
		t.Errorf("tail rate %.1f Mb/s against %.1f Mb/s mid-transfer", tail.Mbps(), full)
	}
	if (clients.Sample{Bytes: 1}).Mbps() != 0 {
		t.Error("a sample spanning no time has a rate")
	}
}

// TestDownloadStallIsZeroSamples: a server that stops sending for a while
// shows up as zero-byte samples, the Figure 8 outage signature.
func TestDownloadStallIsZeroSamples(t *testing.T) {
	const total, interval = 4 << 20, 10 * time.Millisecond
	dl := download(t, stalling(total, 100*time.Millisecond, -1), total, interval)
	if dl.Corrupted {
		t.Error("an intact stream read as corrupted")
	}
	zeros := 0
	for _, s := range dl.Series {
		if s.Bytes == 0 {
			zeros++
		}
	}
	if zeros < 5 {
		t.Errorf("%d zero-byte samples across a 100ms stall at a %v interval, want at least 5", zeros, interval)
	}
}

// TestDownloadFlagsCorruption: one byte off restream.Fill marks the
// download corrupted; it still runs to completion.
func TestDownloadFlagsCorruption(t *testing.T) {
	const total = 1 << 20
	dl := download(t, stalling(total, 0, total-100), total, 10*time.Millisecond)
	if !dl.Corrupted {
		t.Error("a flipped byte went unnoticed")
	}
}

// pages serves every connection one response of n bytes and closes it,
// counting the responses in served.
func pages(n int, served *int) func(*replication.Thread, *tcprep.Sockets) {
	return func(th *replication.Thread, socks *tcprep.Sockets) {
		l, err := socks.Listen(th, port, 64)
		if err != nil {
			return
		}
		resp := make([]byte, n)
		for {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			if _, err := c.Recv(th, 4096); err == nil {
				if _, err := c.Send(th, resp); err == nil {
					*served++
				}
			}
			_ = c.Close(th)
		}
	}
}

// TestRunABWarmUpAndErrors: requests that finish inside the warm-up are
// left out of the stats, whether they succeeded or failed; after it, a
// response shorter than ResponseBytes counts as an error, not a request.
func TestRunABWarmUpAndErrors(t *testing.T) {
	const page, window = 10 << 10, 200 * time.Millisecond
	run := func(want int, warmUp time.Duration) (clients.ABStats, int) {
		served := 0
		b, client := baseline(t, pages(page, &served))
		var ab clients.ABStats
		clients.RunAB(client, clients.ABConfig{
			Port: port, Concurrency: 4, ResponseBytes: want, Duration: window, WarmUp: warmUp,
		}, &ab)
		if err := b.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
			t.Fatal(err)
		}
		if served < 40 {
			t.Fatalf("the server answered %d requests in %v", served, window)
		}
		return ab, served
	}

	ab, served := run(page, 0)
	if ab.Requests != served || ab.Errors != 0 {
		t.Errorf("no warm-up: %d requests, %d errors of %d served", ab.Requests, ab.Errors, served)
	}
	if mean := ab.MeanLatency(); mean <= 0 || mean > ab.LatencyMax {
		t.Errorf("mean latency %v, max %v", mean, ab.LatencyMax)
	}
	if got, want := ab.Throughput(window), float64(ab.Requests)/window.Seconds(); got != want {
		t.Errorf("throughput %v, want %v", got, want)
	}

	ab, served = run(page, window/2)
	if ab.Errors != 0 || ab.Requests == 0 || ab.Requests > served-served/3 {
		t.Errorf("half the window warm-up: %d requests, %d errors of %d served", ab.Requests, ab.Errors, served)
	}

	ab, served = run(page+1, 0)
	if ab.Requests != 0 || ab.Errors != served {
		t.Errorf("short responses: %d requests, %d errors of %d served", ab.Requests, ab.Errors, served)
	}
	if ab.MeanLatency() != 0 || ab.Throughput(0) != 0 {
		t.Errorf("no requests: mean latency %v, throughput %v", ab.MeanLatency(), ab.Throughput(0))
	}
	short := ab.Errors
	ab, _ = run(page+1, window/2)
	if ab.Requests != 0 || ab.Errors == 0 || ab.Errors >= short {
		t.Errorf("short responses after half the window of warm-up: %d requests, %d errors (%d without warm-up)", ab.Requests, ab.Errors, short)
	}
}
