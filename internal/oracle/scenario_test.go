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
		Epochs: true, Ports: 2, Chaos: "tune backup2 salt 5; kill backup @log#7 bus", Then: "retire"}
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
