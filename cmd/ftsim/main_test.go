package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scenario writes a scenario file into a test's temporary directory.
func scenario(t *testing.T, json string) string {
	t.Helper()
	name := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(name, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestGoldenScenarioEndsByItself runs `make golden`'s scenario
// (scenarios/golden.json: an 8 MiB download, the primary killed at 2 s, one
// det shard, two replicas): run returns once the deployment's work is done
// — the heart-beats it leaves running do not hold it open — and the trace
// it writes is the pinned one, window by window; a mismatch names the first
// window that moved and its first event.
func TestGoldenScenarioEndsByItself(t *testing.T) {
	dir := t.TempDir()
	o := options{scenario: "../../scenarios/golden.json",
		trace: filepath.Join(dir, "golden-check.json"), flight: filepath.Join(dir, "flight-golden.txt")}
	if _, _, err := run(o); err != nil {
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
	o := options{scenario: scenario(t, `{"App": "download", "Size": 1048576, "Chaos": "kill-rejoin-kill"}`),
		flight: filepath.Join(t.TempDir(), "flight-krk.txt")}
	if _, _, err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatStormSuspectsSpuriously: the hb-storm preset provokes a
// spurious failover before its two kills, so the run ends a generation past
// them — one promotion per kill, and one for the suspicion.
func TestHeartbeatStormSuspectsSpuriously(t *testing.T) {
	sys, _, err := run(options{scenario: scenario(t, `{"App": "download", "Size": 1048576, "Chaos": "hb-storm"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if kills, g := sys.Injector().Kills, int64(sys.Generation()); g != kills+1 {
		t.Errorf("generation %d after %d kills, want %d: the storm provoked no spurious failover", g, kills, kills+1)
	}
}

// TestRunRejectsUnknownFaultAndChaos: a kill of an unknown fault kind, an
// unknown kill target and a field no scenario has are each an error.
func TestRunRejectsUnknownFaultAndChaos(t *testing.T) {
	for _, bad := range []string{
		`{"App": "download", "Size": 1048576, "Chaos": "kill primary @1s meteor"}`,
		`{"App": "download", "Size": 1048576, "Chaos": "kill everyone @1s"}`,
		`{"App": "download", "Size": 1048576, "Fail": "1s"}`,
	} {
		if _, _, err := run(options{scenario: scenario(t, bad)}); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// TestFoundScenarioOpensTraced opens a scenario ftfuzz found — seed 1's
// scenario 2, memcached with a backup killed at a sync transfer — with -trace: the run
// passes, its client saw what ftfuzz's replay of that file sees (the digest
// cmd/ftfuzz's TestFoundScenariosPass pins), and the trace it writes is a
// well-formed Chrome trace that ftdiag windows reads.
func TestFoundScenarioOpensTraced(t *testing.T) {
	o := options{scenario: "../ftfuzz/testdata/fuzz/seed1-2.json", trace: filepath.Join(t.TempDir(), "seed1-2.trace.json")}
	_, output, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(output))
	if got := fmt.Sprintf("%x", h.Sum64()); got != "e21c6345eff71b04" {
		t.Errorf("the client's output %q digests to %s, ftfuzz's to e21c6345eff71b04", output, got)
	}
	b, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("the trace is no Chrome trace (%d events): %v", len(trace.TraceEvents), err)
	}
	windows, err := obs.TraceWindows(strings.NewReader(string(b)))
	if err != nil || len(windows) == 0 {
		t.Errorf("ftdiag windows reads %d bytes of windows: %v", len(windows), err)
	}
}
