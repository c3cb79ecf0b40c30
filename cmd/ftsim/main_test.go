package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// defaults are the flag defaults of main.
func defaults() options {
	return options{size: 1 << 30, failAt: 3 * time.Second, fault: "core", seed: 1, chaosSeed: 42,
		rejoinDelay: 10 * time.Second, shards: 1, replicas: 2}
}

// TestGoldenScenarioEndsByItself runs `make golden`'s scenario (-size
// 8388608 -fail 2s -shards 1 -replicas 2): run returns once the
// deployment's work is done — the heart-beats it leaves running do not hold
// it open — and the trace it writes is the pinned one.
func TestGoldenScenarioEndsByItself(t *testing.T) {
	dir := t.TempDir()
	o := defaults()
	o.size, o.failAt = 8388608, 2*time.Second
	o.trace, o.flight = filepath.Join(dir, "golden-check.json"), filepath.Join(dir, "flight-golden.txt")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile("../../goldens/ftsim-trace.sha256")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), strings.Fields(string(pinned))[0]; got != want {
		t.Errorf("trace sha256 %s, pinned %s", got, want)
	}
}

// TestChaosPresetEndsByItself: the crash-rejoin-crash preset at a small
// size runs both failovers and both rejoins, and run returns.
func TestChaosPresetEndsByItself(t *testing.T) {
	o := defaults()
	o.size, o.chaosSpec = 1<<20, "kill-rejoin-kill"
	o.flight = filepath.Join(t.TempDir(), "flight-krk.txt")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownFaultAndChaos(t *testing.T) {
	bad := defaults()
	bad.fault = "meteor"
	if err := run(bad); err == nil {
		t.Error("-fault meteor accepted")
	}
	bad = defaults()
	bad.chaosSpec = "kill everyone @1s"
	if err := run(bad); err == nil {
		t.Error("-chaos \"kill everyone @1s\" accepted")
	}
}
