package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// defaults are the flag defaults of main.
func defaults() options {
	return options{size: 1 << 30, failAt: 3 * time.Second, fault: "core", seed: 1,
		rejoinDelay: 10 * time.Second, shards: 1, replicas: 2}
}

// TestGoldenScenarioEndsByItself runs `make golden`'s scenario (-size
// 8388608 -fail 2s -shards 1 -replicas 2): run returns once the
// deployment's work is done — the heart-beats it leaves running do not hold
// it open — and the trace it writes is the pinned one, window by window; a
// mismatch names the first window that moved and its first event.
func TestGoldenScenarioEndsByItself(t *testing.T) {
	dir := t.TempDir()
	o := defaults()
	o.size, o.failAt = 8388608, 2*time.Second
	o.trace, o.flight = filepath.Join(dir, "golden-check.json"), filepath.Join(dir, "flight-golden.txt")
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile("../../goldens/ftsim-trace.windows")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := obs.TraceWindows(f)
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.FirstMismatch(pinned, got); d != "" {
		t.Errorf("the trace moved: %s", d)
	}
}

// TestChaosPresetEndsByItself: the crash-rejoin-crash preset at a small
// size runs both failovers and both rejoins, and run returns.
func TestChaosPresetEndsByItself(t *testing.T) {
	o := defaults()
	o.size, o.chaosSpec = 1<<20, "kill-rejoin-kill"
	o.flight = filepath.Join(t.TempDir(), "flight-krk.txt")
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatStormSuspectsSpuriously: the hb-storm preset provokes a
// spurious failover before its two kills, so the run ends a generation past
// them — one promotion per kill, and one for the suspicion.
func TestHeartbeatStormSuspectsSpuriously(t *testing.T) {
	o := defaults()
	o.size, o.chaosSpec = 1<<20, "hb-storm"
	sys, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if kills, g := sys.Injector().Kills, int64(sys.Generation()); g != kills+1 {
		t.Errorf("generation %d after %d kills, want %d: the storm provoked no spurious failover", g, kills, kills+1)
	}
}

func TestRunRejectsUnknownFaultAndChaos(t *testing.T) {
	bad := defaults()
	bad.fault = "meteor"
	if _, err := run(bad); err == nil {
		t.Error("-fault meteor accepted")
	}
	bad = defaults()
	bad.chaosSpec = "kill everyone @1s"
	if _, err := run(bad); err == nil {
		t.Error("-chaos \"kill everyone @1s\" accepted")
	}
}
