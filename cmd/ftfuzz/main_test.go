package main

import (
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

// TestFoundScenariosPass reruns scenarios that failed the oracle when they
// were found, each with the fault it exposed:
//   - seed 1, scenario 2: a killed replaying kernel's memcached worker,
//     unwinding from a parked replayed section, ran its deferred Close into
//     another one and panicked ("parked twice");
//   - seed 1, scenario 1498: the primary died after a client connection was
//     announced but before its listen section reached the backup, and the
//     promoted replica never handed that connection to the listener its
//     application then opened live: the client waited forever;
//   - seed 1, scenario 125: a connection whose reap had not reached the
//     backup was restored, re-closed and held its four-tuple, and the
//     client, reusing the port (a range of two), ignored its FIN from
//     SYN-SENT instead of resetting it: the new connection timed out.
func TestFoundScenariosPass(t *testing.T) {
	for _, i := range []int{2, 125, 1498} {
		if r := NewFuzzer().Run(Draw(1, i)); r.Err != nil {
			t.Errorf("%s", r.Reproducer())
		}
	}
}
