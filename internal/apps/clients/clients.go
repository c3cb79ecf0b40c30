// Package clients implements the client-side tools of the paper's
// evaluation: an ApacheBench-style closed-loop HTTP load generator (§4.2,
// §4.3) and a wget-style downloader with throughput sampling (§4.4). Both
// run on the unreplicated client machine's kernel and TCP stack.
package clients

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// ABConfig parameterizes the load generator.
type ABConfig struct {
	// Port of the server under test.
	Port int
	// Concurrency is the number of closed-loop client workers (100 in
	// §4.2, 5 in §4.3).
	Concurrency int
	// ResponseBytes is the expected full response size; a request
	// completes when it has all arrived.
	ResponseBytes int
	// Duration bounds the run; workers stop issuing requests after it.
	Duration time.Duration
	// WarmUp excludes the initial ramp from the stats.
	WarmUp time.Duration
}

// ABStats aggregates the load generator's measurements.
type ABStats struct {
	Requests   int
	Errors     int
	LatencySum time.Duration
	LatencyMax time.Duration
}

// MeanLatency reports the average request latency.
func (s *ABStats) MeanLatency() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.LatencySum / time.Duration(s.Requests)
}

// Throughput reports requests/second over the measured window.
func (s *ABStats) Throughput(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.Requests) / window.Seconds()
}

// RunAB starts Concurrency closed-loop workers on the client machine: each
// connects, sends a request, reads the full response, records the latency,
// and repeats — ApacheBench's behaviour with -c Concurrency.
func RunAB(client *core.Client, cfg ABConfig, st *ABStats) {
	req := []byte("GET /page HTTP/1.1\r\nHost: server\r\n\r\n")
	for i := 0; i < cfg.Concurrency; i++ {
		client.Kernel.Spawn("ab", func(t *kernel.Task) {
			end := t.Now().Add(cfg.Duration)
			warm := t.Now().Add(cfg.WarmUp)
			for t.Now() < end {
				start := t.Now()
				ok := oneRequest(t, client, cfg, req)
				if t.Now() < warm {
					continue
				}
				if !ok {
					st.Errors++
					continue
				}
				lat := t.Now().Sub(start)
				st.Requests++
				st.LatencySum += lat
				if lat > st.LatencyMax {
					st.LatencyMax = lat
				}
			}
		})
	}
}

func oneRequest(t *kernel.Task, client *core.Client, cfg ABConfig, req []byte) bool {
	c, err := client.Stack.Connect(t, client.ServerAddr(cfg.Port))
	if err != nil {
		return false
	}
	defer func() { _ = c.Close(t) }()
	if _, err := c.Send(t, req); err != nil {
		return false
	}
	got := 0
	for got < cfg.ResponseBytes {
		data, err := c.Recv(t, 64<<10)
		if errors.Is(err, tcpstack.EOF) {
			break
		}
		if err != nil {
			return false
		}
		got += len(data)
	}
	return got >= cfg.ResponseBytes
}

// Sample is one point of a download throughput series.
type Sample struct {
	At    sim.Time
	Span  time.Duration // the interval the sample covers, ending at At
	Bytes int64         // bytes received within Span
}

// Mbps reports the sample's rate over its span — the last sample of a
// series covers only the tail of an interval.
func (s Sample) Mbps() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / s.Span.Seconds() / 1e6
}

// DownloadStats reports a wget run.
type DownloadStats struct {
	Received   int64
	Complete   bool
	Corrupted  bool
	FinishedAt sim.Time
	Series     []Sample
}

// Download runs a wget-style transfer of size bytes from a restream
// server, sampling received bytes every interval (Figure 8's time series)
// and checking every chunk against restream.Fill at its stream offset.
func Download(client *core.Client, port int, size int64, interval time.Duration, st *DownloadStats) {
	client.Kernel.Spawn("wget", func(t *kernel.Task) {
		c, err := client.Stack.Connect(t, client.ServerAddr(port))
		if err != nil {
			return
		}
		if _, err := c.Send(t, []byte("GET /file HTTP/1.0\r\n\r\n")); err != nil {
			return
		}
		want := make([]byte, 256<<10)
		nextSample := t.Now().Add(interval)
		var windowBytes int64
		for st.Received < size {
			data, err := c.Recv(t, len(want))
			if err != nil {
				break
			}
			restream.Fill(want[:len(data)], int(st.Received))
			if !bytes.Equal(data, want[:len(data)]) {
				st.Corrupted = true
			}
			// Close out any sample intervals that ended before this chunk
			// arrived (an outage shows up as zero-byte samples).
			for t.Now() >= nextSample {
				st.Series = append(st.Series, Sample{At: nextSample, Span: interval, Bytes: windowBytes})
				windowBytes = 0
				nextSample = nextSample.Add(interval)
			}
			st.Received += int64(len(data))
			windowBytes += int64(len(data))
		}
		st.Series = append(st.Series, Sample{At: t.Now(), Span: interval - nextSample.Sub(t.Now()), Bytes: windowBytes})
		st.Complete = st.Received >= size
		st.FinishedAt = t.Now()
		_ = c.Close(t)
	})
}
