package oracle_test

import (
	"strings"
	"testing"

	"repro/internal/oracle"
)

// TestScenarioRoundTrips: a scenario written as JSON reads back as itself,
// and a file that leaves fields out reads their defaults — simulation seed
// 1, one worker and one shard, two replicas, strict commit.
func TestScenarioRoundTrips(t *testing.T) {
	sc := oracle.Scenario{Seed: 4, Index: 17, SimSeed: 9, App: "memcached", Workers: 2, Shards: 4, Replicas: 3, Quorum: 3,
		Epochs: true, Ports: 2, Chaos: "delay log 200us 0s..5s; kill backup @log#7 hang", Then: "retire"}
	got, err := oracle.ParseScenario(sc.JSON())
	if err != nil || got != sc {
		t.Errorf("%s read back as %+v (%v)", sc.JSON(), got, err)
	}
	got, err = oracle.ParseScenario([]byte(`{"App": "download", "Size": 1024}`))
	want := oracle.Scenario{SimSeed: 1, App: "download", Size: 1024, Workers: 1, Shards: 1, Replicas: 2, Strict: true}
	if err != nil || got != want {
		t.Errorf("a sparse file read as %+v (%v), want %+v", got, err, want)
	}
	if _, err := oracle.ParseScenario([]byte(`{"App": "download", "Fail": "2s"}`)); err == nil || !strings.Contains(err.Error(), "Fail") {
		t.Errorf("a field no scenario has read with error %v, want one naming it", err)
	}
}

// TestDeployRejects: an unknown app, a malformed chaos spec and a quorum
// above the replica set are each an error that names the field.
func TestDeployRejects(t *testing.T) {
	ok := oracle.Scenario{SimSeed: 1, App: "condlock", Workers: 1, Shards: 1, Replicas: 2, Strict: true}
	for _, row := range []struct {
		field string
		edit  func(*oracle.Scenario)
	}{
		{`App "no-such-app"`, func(sc *oracle.Scenario) { sc.App = "no-such-app" }},
		{"Chaos", func(sc *oracle.Scenario) { sc.Chaos = "kill everyone @1s" }},
		{"quorum 3", func(sc *oracle.Scenario) { sc.Quorum = 3 }},
	} {
		sc := ok
		row.edit(&sc)
		if sys, _, err := oracle.Deploy(sc); err == nil || !strings.Contains(err.Error(), row.field) {
			t.Errorf("Deploy(%+v) = %v, want an error naming %s", sc, err, row.field)
			if sys != nil {
				sys.Sim.Shutdown()
			}
		}
	}
	sys, run, err := oracle.Deploy(ok)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	if out, err := run(); err != nil || out != "48 items, sum 1176" {
		t.Errorf("the valid scenario ran to %q (%v)", out, err)
	}
}

// TestTwinDropsKills: a scenario's never-failed twin keeps its shape, its
// simulation seed and its ring faults, and drops its kills, what follows
// them and its provenance, whether the kills are spelled out or a preset
// names them.
func TestTwinDropsKills(t *testing.T) {
	sc := oracle.Scenario{Seed: 3, Index: 8, SimSeed: 3, App: "restream", Replicas: 3, Chaos: "delay log 200us 0s..5s; kill primary @log#3 core", Then: "rejoin"}
	if got, want := oracle.Twin(sc), (oracle.Scenario{SimSeed: 3, App: "restream", Replicas: 3, Chaos: "delay log 200us 0s..5s"}); got != want {
		t.Errorf("Twin(%+v) = %+v, want %+v", sc, got, want)
	}
	for preset, want := range map[string]string{"kill-rejoin-kill": "", "hb-storm": "drop hb p0.5 500ms..800ms; drop hb 600ms..670ms"} {
		if sc.Chaos = preset; oracle.Twin(sc).Chaos != want {
			t.Errorf("the twin of preset %s runs %q, want %q", preset, oracle.Twin(sc).Chaos, want)
		}
	}
}

// TestKilledRunWantsEveryVictimDead: a hang that nothing halts — both
// replicas of a pair hung at once, so no heart-beat monitor runs — holds
// the run open, then ends it with its victims alive, and KilledRun names
// each; a halted hang passes.
func TestKilledRunWantsEveryVictimDead(t *testing.T) {
	for _, row := range []struct {
		chaos string
		alive []string
	}{
		{"kill primary @log#3 hang; kill backup @log#3 hang", []string{"primary", "secondary"}},
		{"kill primary @log#3 hang", nil},
	} {
		sys, run, err := oracle.Deploy(oracle.Scenario{SimSeed: 1, App: "condlock", Workers: 1, Shards: 1, Replicas: 2, Strict: true, Chaos: row.chaos})
		if err != nil {
			t.Fatal(err)
		}
		run() // a hang nothing halts ends in a *core.HangError
		err = oracle.KilledRun(sys)
		for _, k := range row.alive {
			if err == nil || !strings.Contains(err.Error(), k+", a kill's victim, is alive at the end") {
				t.Errorf("%s: KilledRun = %v, want %s named alive", row.chaos, err, k)
			}
		}
		if row.alive == nil && err != nil {
			t.Errorf("%s: KilledRun = %v, want nil", row.chaos, err)
		}
		sys.Sim.Shutdown()
	}
}

// TestDelayedLogCommitsLive: with every log transfer delayed and no kill,
// a held output is released once its watermark is published. The
// recorder counts a message before a full batch publishes it, so the
// batch-flush watermark CommitLive reads is what the ring published.
func TestDelayedLogCommitsLive(t *testing.T) {
	sc := oracle.Scenario{SimSeed: 1, App: "memcached", Workers: 2, Shards: 4, Replicas: 2, Strict: true, Chaos: "delay log 1ms 0s..10s"}
	if res := oracle.Check(sc); res.Err != nil {
		t.Error(res.Err)
	}
}
