package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestScenarioIsAFunctionOfSeedAndIndex: scenario i of seed S is the same
// draw, the same kill and the same client output however often, and in
// whichever fuzzer, it runs.
func TestScenarioIsAFunctionOfSeedAndIndex(t *testing.T) {
	for _, i := range []int{0, 3, 7} {
		a, b := Draw(5, i), Draw(5, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Draw(5, %d) = %+v, then %+v", i, a, b)
		}
		ra, rb := NewFuzzer().Run(a), NewFuzzer().Run(b)
		if ra.Err != nil {
			t.Fatalf("scenario %d: %v", i, ra.Err)
		}
		if ra.Reproducer() != rb.Reproducer() || ra.Digest != rb.Digest || ra.Spec == "" {
			t.Errorf("scenario %d ran as %q (client digest %x), then %q (%x)", i, ra.Reproducer(), ra.Digest, rb.Reproducer(), rb.Digest)
		}
	}
	if reflect.DeepEqual(Draw(5, 0), Draw(6, 0)) && reflect.DeepEqual(Draw(5, 1), Draw(6, 1)) {
		t.Error("seeds 5 and 6 draw the same scenarios")
	}
}

// TestSmokeCampaign runs scenarios 0..19 of seed 1 on two workers: each
// passes the oracle, and the results come back in index order.
func TestSmokeCampaign(t *testing.T) {
	results := NewFuzzer().Campaign(1, 0, 20, 2, 0)
	if len(results) != 20 {
		t.Fatalf("%d results, want 20", len(results))
	}
	apps := map[string]bool{}
	for i, r := range results {
		if r.Scenario.Index != i {
			t.Fatalf("result %d is scenario %d", i, r.Scenario.Index)
		}
		if r.Err != nil {
			t.Errorf("%s", r.Reproducer())
		}
		apps[r.Scenario.App] = true
	}
	if len(apps) < 3 {
		t.Errorf("20 scenarios drew apps %v, want at least three", apps)
	}
}

// TestFoundScenariosPass reruns every scenario in testdata/fuzz: each
// failed the oracle when it was found, and ftfuzz writes the next one there,
// shrunk. The first three are draws of seed 1, each with the fault it
// exposed:
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
func TestFoundScenariosPass(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/*.json")
	if err != nil || len(files) < 3 {
		t.Fatalf("found scenarios %v: %v", files, err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scenario
		if err := json.Unmarshal(b, &sc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := NewFuzzer().Run(sc); r.Err != nil {
			t.Errorf("%s: %s", name, r.Reproducer())
		}
	}
}

// TestShrinkAndSave: a failing scenario shrinks to the simplest value of
// every field that keeps it failing — here all of them, since an app the
// oracle does not know fails every shape — and Save writes it as a file
// TestFoundScenariosPass reads back.
func TestShrinkAndSave(t *testing.T) {
	sc := Scenario{Seed: 9, Index: 4, App: "no-such-app", Workers: 4, Shards: 4, Replicas: 3, Quorum: 3,
		Epochs: true, Ports: 2, Target: "backup", Kind: "coherency", Then: "retire"}
	f := NewFuzzer()
	r := f.Shrink(f.Run(sc))
	want := Scenario{Seed: 9, Index: 4, App: "no-such-app", Workers: 1, Shards: 1, Replicas: 2, Quorum: 2,
		Strict: true, Target: "backup", Kind: "core"}
	if r.Err == nil || r.Scenario != want {
		t.Fatalf("shrunk to %+v (%v), want %+v failing", r.Scenario, r.Err, want)
	}
	dir := t.TempDir()
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "seed9-4.json"))
	var got Scenario
	if err != nil || json.Unmarshal(b, &got) != nil || got != want {
		t.Errorf("saved %s (%v), want %+v", b, err, want)
	}
}
