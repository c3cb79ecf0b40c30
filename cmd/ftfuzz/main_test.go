package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// init adds an app whose main panics once its deployment runs: it fails
// every shape after Deploy, with a flight dump. Draw never picks it (its
// apps are fixed before init runs).
func init() {
	app := oracle.Apps["condlock"]
	app.Name, app.Serves = "panics", false
	app.Start = func(sys *core.System, sc oracle.Scenario) (func() (string, error), error) {
		sys.Run(core.App{Name: "panics", Main: func(*replication.Thread, *tcprep.Sockets) { panic("planted") }})
		return func() (string, error) { return "", nil }, nil
	}
	oracle.Apps["panics"] = app
}

// TestScenarioIsAFunctionOfSeedAndIndex: scenario i of seed S is the same
// draw, the same kill and the same client output however often, and in
// whichever worker, it runs.
func TestScenarioIsAFunctionOfSeedAndIndex(t *testing.T) {
	for _, i := range []int{0, 3, 7} {
		a, b := Draw(5, i), Draw(5, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Draw(5, %d) = %+v, then %+v", i, a, b)
		}
		ra, rb := Check(a), Check(b)
		if ra.Err != nil {
			t.Fatalf("scenario %d: %v", i, ra.Err)
		}
		if ra.Reproducer() != rb.Reproducer() || ra.Digest != rb.Digest || !strings.Contains(ra.Scenario.Chaos, "kill") {
			t.Errorf("scenario %d ran as %q (client digest %x), then %q (%x)", i, ra.Reproducer(), ra.Digest, rb.Reproducer(), rb.Digest)
		}
	}
	if reflect.DeepEqual(Draw(5, 0), Draw(6, 0)) && reflect.DeepEqual(Draw(5, 1), Draw(6, 1)) {
		t.Error("seeds 5 and 6 draw the same scenarios")
	}
}

// TestDrawIsPinned: a draw is the shape, ring fault, kill and what follows
// that seed S has always drawn for index i, run at simulation seed S; a
// change to Draw that moves any field moves every scenario index a campaign
// or a saved file names.
func TestDrawIsPinned(t *testing.T) {
	sc := func(s int64, i int, app string, workers, shards, replicas, quorum int, strict bool, ports int, epochs bool, chaos, then string) oracle.Scenario {
		return oracle.Scenario{Seed: s, Index: i, SimSeed: s, App: app, Workers: workers, Shards: shards, Replicas: replicas,
			Quorum: quorum, Strict: strict, Ports: ports, Epochs: epochs, Chaos: chaos, Then: then}
	}
	for _, want := range []Drawn{
		{sc(1, 1, "restream", 1, 1, 2, 2, false, 4, true, "", "rejoin"), "primary", "core", 1952627761515405933},
		{sc(1, 2, "pbzip2", 2, 1, 2, 2, true, 0, false, "drop hb 0s..70ms", "retire"), "backup", "core", 8289669384274456462},
		{sc(1, 3, "mongoose", 4, 1, 2, 2, true, 0, false, "delay acks 50us 0s..10s", ""), "backup", "hang", 15902799205909178868},
		{sc(1, 4, "condlock", 1, 4, 2, 2, true, 4, false, "", ""), "backup", "hang", 9224098247540530994},
		{sc(1, 20, "condlock", 4, 1, 3, 2, false, 0, false, "", ""), "primary", "core", 918469213867676436},
		{sc(2, 2, "condlock", 4, 1, 3, 3, false, 4, false, "", "retire"), "primary", "coherency", 10793670043345227523},
		{sc(3, 4, "restream", 4, 4, 3, 2, true, 4, true, "drop hb 0s..70ms", "rejoin"), "backup", "core", 353380615205641355},
		{sc(6, 2, "mongoose", 2, 4, 2, 2, false, 4, false, "drop hb 0s..30ms", ""), "backup", "coherency", 17123901299739081092},
	} {
		if got := Draw(want.Seed, want.Index); got != want {
			t.Errorf("Draw(%d, %d) = %+v, want %+v", want.Seed, want.Index, got, want)
		}
	}
}

// TestSmokeCampaign runs scenarios 0..19 of seed 1 on two workers: each
// passes the oracle, and they draw at least three apps.
func TestSmokeCampaign(t *testing.T) {
	tally := Campaign(1, 0, 20, 2, 0)
	if tally.Ran != 20 || tally.Failed != 0 {
		t.Fatalf("ran %d, failed %d, want 20 and none", tally.Ran, tally.Failed)
	}
	apps := map[string]bool{}
	for i := range 20 {
		apps[Draw(1, i).App] = true
	}
	if len(apps) < 3 {
		t.Errorf("20 scenarios drew apps %v, want at least three", apps)
	}
}

// TestFailingCampaignKeepsOneResult: a campaign in which every scenario
// fails counts them all and keeps one Result, the lowest index's, with the
// flight dump its shrink and save need.
func TestFailingCampaignKeepsOneResult(t *testing.T) {
	defer func(drawn []string) { apps = drawn }(apps)
	apps = []string{"panics"}
	tally := Campaign(5, 3, 8, 2, 0)
	if tally.Ran != 8 || tally.Failed != 8 {
		t.Fatalf("ran %d, failed %d, want 8 and 8", tally.Ran, tally.Failed)
	}
	if r := tally.First; r == nil || r.Draw.Index != 3 || r.Err == nil || r.Flight == nil {
		t.Errorf("kept %+v, want scenario 3's failure with its flight dump", r)
	}
}

// TestFoundScenariosPass reruns every scenario in testdata/fuzz: each
// failed the oracle when it was found, and ftfuzz writes the next one there,
// shrunk, with its kill resolved. The first three are draws of seed 1, each
// with the fault it exposed:
//   - scenario 2: a killed replaying kernel's memcached worker, unwinding
//     from a parked replayed section, ran its deferred Close into another
//     one and panicked ("parked twice");
//   - scenario 1498: the primary died after a client connection was
//     announced but before its listen section reached the backup, and the
//     promoted replica never handed that connection to the listener its
//     application then opened live: the client waited forever;
//   - scenario 125: a connection whose reap had not reached the backup was
//     restored, re-closed and held its four-tuple, and the client, reusing
//     the port (a range of two), ignored its FIN from SYN-SENT instead of
//     resetting it: the new connection timed out.
//
// Scenario 2's client output digest is pinned: cmd/ftsim's
// TestFoundScenarioOpensTraced opens the same file and reads the same one.
func TestFoundScenariosPass(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/*.json")
	if err != nil || len(files) < 3 {
		t.Fatalf("found scenarios %v: %v", files, err)
	}
	for _, name := range files {
		t.Run(strings.TrimSuffix(filepath.Base(name), ".json"), func(t *testing.T) {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := oracle.ParseScenario(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r := Result{Result: oracle.Check(sc)}
			if r.Err != nil {
				t.Errorf("%s: %s", name, r.summary())
			}
			if want := uint64(0xe21c6345eff71b04); filepath.Base(name) == "seed1-2.json" && r.Digest != want {
				t.Errorf("%s: the client's output digests to %x, want %x", name, r.Digest, want)
			}
		})
	}
}

// TestShrinkAndSave: a failing draw shrinks to the simplest value of every
// drawn field that keeps it failing — here all of them, its ring fault
// first, since an app that panics fails every shape — and Save writes it as a file TestFoundScenariosPass reads back, with the
// finding (the app's panic) and the flight dump ftdiag explain reads, which
// the printed commands name.
func TestShrinkAndSave(t *testing.T) {
	d := Drawn{Scenario: oracle.Scenario{Seed: 9, Index: 4, SimSeed: 9, App: "panics", Workers: 4, Shards: 4, Replicas: 3, Quorum: 3,
		Epochs: true, Ports: 2, Chaos: "delay log 200us 0s..5s", Then: "retire"}, Target: "backup", Kind: "coherency"}
	r := Shrink(Check(d))
	want := Drawn{Scenario: oracle.Scenario{Seed: 9, Index: 4, SimSeed: 9, App: "panics", Workers: 1, Shards: 1, Replicas: 2, Quorum: 2,
		Strict: true}, Target: "backup", Kind: "core"}
	if r.Err == nil || r.Draw != want || r.Scenario != want.Scenario {
		t.Fatalf("shrunk to %+v as %+v (%v), want %+v failing", r.Draw, r.Scenario, r.Err, want)
	}
	dir := t.TempDir()
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "seed9-4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := oracle.ParseScenario(b); err != nil || got != want.Scenario {
		t.Errorf("saved %s (%v), want %+v", b, err, want.Scenario)
	}
	fd, err := os.ReadFile(filepath.Join(dir, "seed9-4.finding.txt"))
	if err != nil || !strings.HasPrefix(string(fd), "the never-failed run: panic: ") || !strings.Contains(string(fd), "panicked: planted") {
		t.Errorf("saved finding %q (%v), want the never-failed run's panic", fd, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "seed9-4.flight.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("saved flight dump %v (%v), want the events up to the panic", fi, err)
	}
	replay := Replay(dir, r)
	for _, cmd := range []string{"go test ./cmd/ftfuzz -run 'TestFoundScenariosPass/seed9-4$'",
		"go run ./cmd/ftdiag explain " + filepath.Join(dir, "seed9-4.json"),
		"go run ./cmd/ftsim -scenario " + filepath.Join(dir, "seed9-4.json") + " -trace " + filepath.Join(dir, "seed9-4.trace.json")} {
		if !strings.Contains(replay, cmd) {
			t.Errorf("printed %q, want it to name %q", replay, cmd)
		}
	}
}
