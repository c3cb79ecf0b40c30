package core_test

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// tracedRun boots a traced deployment running both det-section traffic
// (lockApp) and a client-visible echo service — so the trace carries
// recorded tuples AND output-commit stalls — and optionally kills the
// primary kernel at killAt (0 = never), returning the finished system.
func tracedRun(t *testing.T, seed int64, killAt time.Duration) *core.System {
	t.Helper()
	sys := quietSystem(t, seed, core.WithTrace())
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	// One root app per replica: the root serves the echo port while a
	// spawned sibling generates det-section traffic — tuples AND
	// output-commit stalls in one trace. (A namespace has exactly one
	// root thread; Start twice would collide on ft_pid 1.)
	var pDone, sDone int
	sys.Run(core.App{Name: "workload", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		done := &pDone
		if th.NS().Role() == replication.RoleSecondary {
			done = &sDone
		}
		th.NS().SpawnThread(th, "locker", lockApp(200))
		echoApp(80, 10, done)(th, socks)
	}})
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		for i := 0; i < 10; i++ {
			c, err := client.Stack.Connect(tk, client.ServerAddr(80))
			if err != nil {
				return // the kill can land mid-connect; the trace is the product
			}
			if _, err := c.Send(tk, []byte{byte('a' + i)}); err != nil {
				return
			}
			if _, err := c.Recv(tk, 4096); err != nil {
				return
			}
			_ = c.Close(tk)
			tk.Sleep(20 * time.Millisecond)
		}
	})
	if killAt > 0 {
		sys.Sim.Schedule(killAt, func() {
			sys.Primary.Kernel.Panic("test kill", nil)
		})
	}
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDiffSameSeedKillIdentifiesFirstDivergentTuple is the acceptance
// scenario: a same-seed killed run agrees with a never-failed one on every
// tuple the dead primary recorded, and the promoted fork carries the history
// on. The first divergence, if the fork's schedule leaves one, is a tuple
// the survivor records after the failover, with a non-empty causal slice
// explaining it.
func TestDiffSameSeedKillIdentifiesFirstDivergentTuple(t *testing.T) {
	t.Parallel()
	clean := tracedRun(t, 11, 0)
	killed := tracedRun(t, 11, 150*time.Millisecond)
	if killed.FailedAt == 0 {
		t.Fatal("the kill was never detected")
	}

	d := causal.DiffTraces(clean.Obs.Events(), killed.Obs.Events(), 0)
	if d == nil {
		return
	}
	// The dead primary's recorded tuples are the clean run's prefix.
	nPrimary := 0
	for _, e := range killed.Obs.Events() {
		if e.Kind == obs.TupleEmit && e.Scope == "primary/ftns" {
			nPrimary++
		}
	}
	if d.Index < nPrimary {
		t.Fatalf("divergence at tuple #%d inside the %d the dead primary recorded: %s", d.Index, nPrimary, d.Summary())
	}
	if d.B == nil || d.B.Scope != "secondary/ftns" || d.B.At < killed.FailedAt {
		t.Fatalf("divergent event %+v is not one the survivor recorded after the failover at %v", d.B, killed.FailedAt)
	}
	if d.B.Obj == 0 && d.B.OSeq == 0 {
		t.Fatalf("divergent event carries no <obj, Seq_obj> identity: %+v", d.B)
	}
	if len(d.Slice) == 0 {
		t.Fatal("empty causal slice")
	}
}

// TestDiffSameSeedRunsAgree: two same-seed runs with identical fault
// schedules have no divergence — the diagnosis only fires on real
// behavioral differences.
func TestDiffSameSeedRunsAgree(t *testing.T) {
	t.Parallel()
	a := tracedRun(t, 13, 150*time.Millisecond)
	b := tracedRun(t, 13, 150*time.Millisecond)
	if d := causal.DiffTraces(a.Obs.Events(), b.Obs.Events(), 0); d != nil {
		t.Fatalf("same-seed same-schedule runs diverged: %s", d.Summary())
	}
}

// TestFailoverDumpCarriesDiagnosis: when the kill leaves recorded tuples
// the backup was never granted, the flight dump arrives pre-triaged with
// the replay-frontier diagnosis, and the text dump renders it.
func TestFailoverDumpCarriesDiagnosis(t *testing.T) {
	t.Parallel()
	// 150.7ms lands between a tuple's recording and its replay grant at
	// this seed, so the dump has a frontier to diagnose (deterministic:
	// the virtual clock makes the window exactly reproducible).
	sys := tracedRun(t, 11, 150*time.Millisecond+700*time.Microsecond)
	if sys.Flight == nil {
		t.Fatal("no flight dump on failover")
	}
	// Whether a frontier exists at the kill instant is seed/schedule
	// dependent but deterministic: assert consistency with the trace up to
	// the failover, before the promoted fork records anything.
	var upToFailover []obs.Event
	for _, e := range sys.Obs.Events() {
		if e.At <= sys.FailedAt {
			upToFailover = append(upToFailover, e)
		}
	}
	frontier := causal.ReplayDiffScoped(upToFailover, "")
	if frontier == nil {
		if sys.Flight.Diagnosis != "" {
			t.Fatalf("diagnosis present but trace shows no frontier:\n%s", sys.Flight.Diagnosis)
		}
		t.Skip("kill landed on a fully-replayed boundary; no frontier to diagnose at this seed")
	}
	if sys.Flight.Diagnosis == "" {
		t.Fatal("trace shows a replay frontier but the dump carries no diagnosis")
	}
	if !strings.Contains(sys.Flight.Diagnosis, "replay frontier") {
		t.Errorf("diagnosis does not name the replay frontier:\n%s", sys.Flight.Diagnosis)
	}
	if !strings.Contains(sys.Flight.Diagnosis, "failed_at_ns=") {
		t.Errorf("diagnosis missing the failover-instant note:\n%s", sys.Flight.Diagnosis)
	}
	var buf bytes.Buffer
	sys.Flight.WriteText(&buf)
	if !strings.Contains(buf.String(), "-- divergence diagnosis --") {
		t.Error("text dump does not render the diagnosis section")
	}
}

const attributeGolden = "../../goldens/ftdiag-attribute.txt"

// TestAttributeDeterministicAndGolden: same-seed attribution reports are
// byte-identical, and the exact bytes are pinned by a repo golden.
// UPDATE_GOLDENS=1 rewrites the golden.
func TestAttributeDeterministicAndGolden(t *testing.T) {
	t.Parallel()
	var runs [2][]byte
	for i := range runs {
		sys := tracedRun(t, 11, 150*time.Millisecond)
		a := causal.Attribute(causal.Build(sys.Obs.Events()))
		var buf bytes.Buffer
		a.WriteText(&buf)
		runs[i] = buf.Bytes()
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("two same-seed runs produced different attribution bytes")
	}
	if len(runs[0]) == 0 {
		t.Fatal("empty attribution report")
	}
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(attributeGolden, runs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", attributeGolden)
		return
	}
	want, err := os.ReadFile(attributeGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDENS=1 to create it)", err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Errorf("attribution drifted from %s (UPDATE_GOLDENS=1 to re-pin):\ngot:\n%s\nwant:\n%s",
			attributeGolden, runs[0], want)
	}
}

// TestAttributeCritPathTrackValid: the Perfetto critical-path track is
// well-formed JSON with one metadata record per emitting scope.
func TestAttributeCritPathTrackValid(t *testing.T) {
	t.Parallel()
	sys := tracedRun(t, 11, 150*time.Millisecond)
	a := causal.Attribute(causal.Build(sys.Obs.Events()))
	if len(a.Outputs) == 0 {
		t.Skip("no committed outputs at this seed")
	}
	var buf bytes.Buffer
	if err := a.WriteCritPath(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"critpath:`)) {
		t.Error("track missing the critpath process metadata")
	}
}
