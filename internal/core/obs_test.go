package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// lockApp generates deterministic-section traffic: a mutex lock/unlock
// pair every 2ms, so tuples, flushes, and acks flow until the kill.
func lockApp(rounds int) func(*replication.Thread) {
	return func(th *replication.Thread) {
		mu := th.Lib().NewMutex()
		for i := 0; i < rounds; i++ {
			mu.Lock(th.Task())
			mu.Unlock(th.Task())
			th.Task().Sleep(2 * time.Millisecond)
		}
	}
}

// lockMain is lockApp as an App body (it never touches the network).
func lockMain(rounds int) func(*replication.Thread, *tcprep.Sockets) {
	return func(th *replication.Thread, _ *tcprep.Sockets) { lockApp(rounds)(th) }
}

// killPrimarySystem boots a traced deployment, runs lockApp on both
// replicas, and kills the primary kernel directly at 150ms — NOT via an
// MCA fault report, so the secondary learns of the death only through
// missing heart-beats and the full detection sequence runs.
func killPrimarySystem(t *testing.T, seed int64) *core.System {
	t.Helper()
	sys := quietSystem(t, seed, core.WithTrace())
	sys.Run(core.App{Name: "locker", Main: lockMain(200)})
	sys.Sim.Schedule(150*time.Millisecond, func() {
		sys.Primary.Kernel.Panic("test kill", nil)
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPrimaryKillEventTimeline(t *testing.T) {
	t.Parallel()
	sys := killPrimarySystem(t, 7)

	wantRejoined(t, sys, "after the kill")

	// The detector must walk the exact state machine: the last received
	// heart-beat, then miss -> suspect -> failover. No IPI: the peer is
	// already dead when suspicion fires.
	var det []obs.Kind
	for _, e := range sys.Obs.Events() {
		if e.Scope == "secondary/detector" && e.Kind != obs.Heartbeat {
			det = append(det, e.Kind)
		}
	}
	want := []obs.Kind{obs.HeartbeatMiss, obs.Suspect, obs.FailoverStart}
	if len(det) != len(want) {
		t.Fatalf("detector events = %v, want %v", det, want)
	}
	for i := range want {
		if det[i] != want[i] {
			t.Fatalf("detector events = %v, want %v", det, want)
		}
	}

	// The primary's panic and the secondary's promotion landmarks are in
	// the stream, in causal order.
	var panicOrder, soloOrder uint64
	for _, e := range sys.Obs.Events() {
		switch {
		case e.Scope == "primary/kernel" && e.Kind == obs.KernelPanic:
			panicOrder = e.Order
			if e.Note != "test kill" {
				t.Errorf("panic note = %q", e.Note)
			}
		case e.Scope == "secondary/ftns" && e.Kind == obs.Unreplicated:
			soloOrder = e.Order
		}
	}
	if panicOrder == 0 || soloOrder == 0 || panicOrder >= soloOrder {
		t.Errorf("panic order %d / unreplicated order %d: missing or misordered", panicOrder, soloOrder)
	}
}

func TestFlightDumpOnFailover(t *testing.T) {
	t.Parallel()
	sys := killPrimarySystem(t, 7)

	d := sys.Flight
	if d == nil {
		t.Fatal("no flight dump captured on failover")
	}
	if d.At != sys.FailedAt {
		t.Errorf("dump at t=%d, failover at t=%d", d.At, sys.FailedAt)
	}

	// The dump must contain the last cumulative ack the secondary sent —
	// the stable watermark failover resumes from.
	ack, ok := d.LastEvent(obs.AckSend)
	if !ok || ack.Seq <= 0 {
		t.Fatalf("last ack = %+v, ok=%v; want a positive watermark", ack, ok)
	}
	sent := int64(sys.Primary.NS.Stats().LogMessages)
	if ack.Seq > sent {
		t.Errorf("acked %d > sent %d", ack.Seq, sent)
	}

	// The detector's state transitions are in the dump.
	if _, ok := d.LastEvent(obs.HeartbeatMiss); !ok {
		t.Error("dump missing the heartbeat miss")
	}
	// The replay.lag gauge was sampled at the moment of failure.
	if _, ok := d.Metrics.Gauge("replay.lag"); !ok {
		t.Error("dump missing the replay.lag gauge")
	}

	var buf bytes.Buffer
	d.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("heartbeat-miss")) {
		t.Error("text dump does not show the detector timeline")
	}
}

func TestTraceBytesIdenticalAcrossRuns(t *testing.T) {
	t.Parallel()
	var runs [2][]byte
	for i := range runs {
		sys := killPrimarySystem(t, 11)
		var buf bytes.Buffer
		if err := sys.Obs.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		runs[i] = buf.Bytes()
	}
	if len(runs[0]) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two same-seed runs produced different trace bytes")
	}
}
