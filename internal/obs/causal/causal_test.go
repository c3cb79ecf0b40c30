package causal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ev builds one event; tests construct synthetic streams with known
// causal structure and assert the graph recovers it exactly.
func ev(order uint64, at int64, scope string, k obs.Kind, tid int32, seq, arg int64, obj uint64, oseq int64) obs.Event {
	return obs.Event{Order: order, At: sim.Time(at), Scope: scope, Kind: k, TID: tid, Seq: seq, Arg: arg, Obj: obj, OSeq: oseq}
}

// pipelineTrace is one tuple's full lifecycle across recorder, ring, and
// replayer, ending in an output-commit stall release:
//
//	0 det-enter   primary/ftns  tid=1 seq=0 arg=1000 obj=7 oseq=0   (seq-wait 1µs)
//	1 tuple-emit  primary/ftns  tid=1 seq=0 arg=64   obj=7 oseq=0   t=100
//	2 det-exit    primary/ftns  tid=1 seq=0          obj=7 oseq=0
//	3 output-held primary/ftns  seq=1                               t=150
//	4 batch-flush primary/ftns  seq=1 arg=1                         t=200
//	5 span-commit shm/ftns.log  seq=1 arg=1                         t=200
//	6 deliver     shm/ftns.log  seq=1 arg=1                         t=900
//	7 replay      secondary/ftns tid=1 seq=0 arg=500 obj=7 oseq=0   t=950
//	8 ack         secondary/ftns seq=1                              t=960
//	9 output-released primary/ftns seq=1 arg=850                    t=1000
func pipelineTrace() []obs.Event {
	return []obs.Event{
		ev(1, 50, "primary/ftns", obs.DetEnter, 1, 0, 1000, 7, 0),
		ev(2, 100, "primary/ftns", obs.TupleEmit, 1, 0, 64, 7, 0),
		ev(3, 110, "primary/ftns", obs.DetExit, 1, 0, 0, 7, 0),
		ev(4, 150, "primary/ftns", obs.OutputHeld, 0, 1, 0, 0, 0),
		ev(5, 200, "primary/ftns", obs.BatchFlush, 0, 1, 1, 0, 0),
		ev(6, 200, "shm/ftns.log", obs.SpanCommit, 0, 1, 1, 0, 0),
		ev(7, 900, "shm/ftns.log", obs.RingDeliver, 0, 1, 1, 0, 0),
		ev(8, 950, "secondary/ftns", obs.Replay, 1, 0, 500, 7, 0),
		ev(9, 960, "secondary/ftns", obs.AckSend, 0, 1, 0, 0, 0),
		ev(10, 1000, "primary/ftns", obs.OutputReleased, 0, 1, 850, 0, 0),
	}
}

func parentsOf(g *Graph, i int) map[int]bool {
	m := make(map[int]bool)
	for _, p := range g.Parents(i) {
		m[p] = true
	}
	return m
}

func TestBuildEdges(t *testing.T) {
	g := Build(pipelineTrace())

	// Record→replay: TupleEmit(7,0) at index 1 precedes Replay(7,0) at 7.
	if !parentsOf(g, 7)[1] {
		t.Errorf("replay grant missing record→replay edge; parents=%v", g.Parents(7))
	}
	// Tuple→flush: emit (1) precedes the batch flush (4).
	if !parentsOf(g, 4)[1] {
		t.Errorf("batch flush missing tuple→flush edge; parents=%v", g.Parents(4))
	}
	// Flush→deliver on the paired ring: flush (4) precedes deliver (6).
	if !parentsOf(g, 6)[4] {
		t.Errorf("deliver missing flush→deliver edge; parents=%v", g.Parents(6))
	}
	// Watermark edges into the release (9): held (3), deliver (6), ack (8).
	rel := parentsOf(g, 9)
	for _, want := range []int{3, 6, 8} {
		if !rel[want] {
			t.Errorf("release missing parent %d; parents=%v", want, g.Parents(9))
		}
	}
	// Lane order within the recorder scope: det-exit's parent is the emit.
	if !parentsOf(g, 2)[1] {
		t.Errorf("det-exit missing lane edge from emit; parents=%v", g.Parents(2))
	}
}

func TestPerObjectOrderEdges(t *testing.T) {
	// Two threads alternating on one object: the det order on obj 9 must
	// chain across the thread lanes.
	events := []obs.Event{
		ev(1, 10, "primary/ftns", obs.TupleEmit, 1, 0, 64, 9, 0),
		ev(2, 20, "primary/ftns", obs.TupleEmit, 2, 1, 64, 9, 1),
		ev(3, 30, "primary/ftns", obs.TupleEmit, 1, 2, 64, 9, 2),
	}
	g := Build(events)
	if !parentsOf(g, 1)[0] {
		t.Errorf("oseq=1 missing det-order edge from oseq=0; parents=%v", g.Parents(1))
	}
	if !parentsOf(g, 2)[1] {
		t.Errorf("oseq=2 missing det-order edge from oseq=1; parents=%v", g.Parents(2))
	}
}

func TestSliceContainsAncestryInOrder(t *testing.T) {
	events := pipelineTrace()
	g := Build(events)
	sl := g.Slice(9, 0) // the release
	if len(sl) == 0 {
		t.Fatal("slice is empty")
	}
	// Slice must include the release itself, its hold, and reach back to
	// the tuple emission through the watermark edges.
	want := map[obs.Kind]bool{obs.OutputReleased: false, obs.OutputHeld: false, obs.TupleEmit: false}
	last := uint64(0)
	for _, e := range sl {
		if e.Order <= last {
			t.Fatalf("slice not in emission order: %v", sl)
		}
		last = e.Order
		if _, ok := want[e.Kind]; ok {
			want[e.Kind] = true
		}
	}
	for k, seen := range want { // ftvet:nondet map-order only gates test failure text
		if !seen {
			t.Errorf("slice missing %v: %v", k, sl)
		}
	}
	// Cap respected.
	if got := g.Slice(9, 3); len(got) != 3 {
		t.Errorf("slice cap: got %d events, want 3", len(got))
	}
}

func TestAttributeStages(t *testing.T) {
	a := Attribute(Build(pipelineTrace()))
	if len(a.Outputs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(a.Outputs))
	}
	o := a.Outputs[0]
	if !o.HasTuple || o.Tuple.Obj != 7 || o.Tuple.OSeq != 0 {
		t.Fatalf("wrong tuple ref: %+v", o.Tuple)
	}
	checks := map[Stage]int64{
		StageSeqWait:        1000, // DetEnter.Arg
		StageReplayGrant:    500,  // Replay.Arg
		StageRingReserve:    0,    // no blocked reservation in the trace
		StageBatchResidency: 100,  // flush@200 - emit@100
		StageTransfer:       700,  // deliver@900 - flush@200
		StageCommitWait:     850,  // OutputReleased.Arg
	}
	for st := Stage(0); st < NumStages; st++ {
		if o.Stages[st] != checks[st] {
			t.Errorf("stage %v = %d, want %d", st, o.Stages[st], checks[st])
		}
	}
	if o.Total() != 1000+500+100+700+850 {
		t.Errorf("total = %d", o.Total())
	}
	// Stage stats come from a single sample: p50 == max == the value.
	if a.Stages[StageTransfer].P50 != 700 || a.Stages[StageTransfer].MaxNs != 700 {
		t.Errorf("transfer stat: %+v", a.Stages[StageTransfer])
	}
}

func TestAttributeTextDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	Attribute(Build(pipelineTrace())).WriteText(&b1)
	Attribute(Build(pipelineTrace())).WriteText(&b2)
	if b1.String() != b2.String() {
		t.Fatal("attribution text differs across identical inputs")
	}
	if !strings.Contains(b1.String(), "commit-wait") {
		t.Fatalf("report missing stage table:\n%s", b1.String())
	}
}

func TestWriteCritPathValidJSON(t *testing.T) {
	var b bytes.Buffer
	if err := Attribute(Build(pipelineTrace())).WriteCritPath(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("critpath track is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("critpath track is empty")
	}
}

// TestDiffPlantedDivergence plants a mutation at a known position and
// asserts the diff names the exact first divergent tuple — the acceptance
// criterion's automated check at the unit level.
func TestDiffPlantedDivergence(t *testing.T) {
	mk := func() []obs.Event {
		var out []obs.Event
		order := uint64(1)
		for i := 0; i < 8; i++ {
			obj := uint64(5 + i%2)
			oseq := int64(i / 2)
			out = append(out, ev(order, int64(100*i+10), "primary/ftns", obs.TupleEmit, int32(1+i%2), int64(i), 64, obj, oseq))
			order++
		}
		return out
	}
	a, b := mk(), mk()

	if d := DiffTraces(a, b, 0); d != nil {
		t.Fatalf("identical traces diverge: %s", d.Summary())
	}

	// Plant: run b grants obj 6 a different section at aligned position 5.
	b[5].Obj = 11
	b[5].OSeq = 0
	d := DiffTraces(a, b, 0)
	if d == nil {
		t.Fatal("planted divergence not found")
	}
	if d.Class != ClassTupleMismatch || d.Index != 5 {
		t.Fatalf("wrong divergence: class=%s index=%d", d.Class, d.Index)
	}
	if d.A.Obj != 6 || d.A.OSeq != 2 || d.B.Obj != 11 {
		t.Fatalf("wrong tuples: a=%+v b=%+v", d.A, d.B)
	}
	if len(d.Slice) == 0 {
		t.Fatal("divergence has an empty causal slice")
	}
	if !strings.Contains(d.Summary(), "#5") || !strings.Contains(d.Summary(), "obj=6 oseq=2") {
		t.Fatalf("summary does not name the tuple: %s", d.Summary())
	}
}

func TestDiffMissingSuffix(t *testing.T) {
	var full []obs.Event
	for i := 0; i < 6; i++ {
		full = append(full, ev(uint64(i+1), int64(100*i+10), "primary/ftns", obs.TupleEmit, 1, int64(i), 64, 7, int64(i)))
	}
	short := full[:4] // killed after the fourth recorded tuple
	d := DiffTraces(full, short, 0)
	if d == nil {
		t.Fatal("prefix trace not diagnosed")
	}
	if d.Class != ClassMissingSuffix || d.B != nil || d.A == nil {
		t.Fatalf("wrong diagnosis: %+v", d)
	}
	if d.Index != 4 || d.A.Obj != 7 || d.A.OSeq != 4 {
		t.Fatalf("wrong frontier tuple: index=%d %+v", d.Index, d.A)
	}
	if len(d.Slice) == 0 {
		t.Fatal("empty slice")
	}
}

// TestDiffCappedSliceEndsWithDivergentEvent: a size cap keeps the divergent
// event and its nearest ancestors, not the oldest events of its ancestry.
func TestDiffCappedSliceEndsWithDivergentEvent(t *testing.T) {
	var full []obs.Event
	for i := 0; i < 6; i++ {
		full = append(full, ev(uint64(i+1), int64(100*i+10), "primary/ftns", obs.TupleEmit, 1, int64(i), 64, 7, int64(i)))
	}
	if d := DiffTraces(full, full[:4], 0); d == nil || len(d.Slice) <= 2 {
		t.Fatalf("uncapped diff %+v: want a slice longer than the cap", d)
	}
	d := DiffTraces(full, full[:4], 2)
	if d == nil {
		t.Fatal("prefix trace not diagnosed")
	}
	if len(d.Slice) != 2 || d.Slice[1].Order != d.A.Order || d.Slice[0].Order != d.A.Order-1 {
		t.Fatalf("capped slice %v, want the divergent event order=%d and its parent", d.Slice, d.A.Order)
	}
}

// TestDiffReRecordedTail: a dead primary's tuples past the promoted
// replayer's head, which its fork records again, are no divergence; the
// same tuples re-recorded in another order are one, and ReplayDiffScoped
// still reads the dead primary's whole stream.
func TestDiffReRecordedTail(t *testing.T) {
	tuple := func(order uint64, scope string, seq int64) obs.Event {
		return ev(order, int64(100*order), scope, obs.TupleEmit, 1, seq, 64, 7, seq)
	}
	var clean, killed []obs.Event
	for i := range 4 {
		clean = append(clean, tuple(uint64(i+1), "primary/ftns", int64(i)))
	}
	killed = append(killed, clean[:3]...) // tuple 2 is never replayed
	killed = append(killed,
		ev(4, 400, "backup1/ftns", obs.Replay, 1, 0, 0, 7, 0),
		ev(5, 500, "backup1/ftns", obs.Replay, 1, 1, 0, 7, 1),
		ev(6, 600, "backup1/ftns", obs.Promote, 0, 2, 0, 0, 0),
		ev(7, 700, "backup1/ftns", obs.Unreplicated, 0, 2, 0, 0, 0),
		tuple(8, "gen1/ftns", 2), tuple(9, "gen1/ftns", 3))
	if d := DiffTraces(clean, killed, 0); d != nil {
		t.Errorf("a re-recorded tail diverges: %s", d.Summary())
	}
	if d := ReplayDiffScoped(killed, "backup1/ftns"); d == nil || d.A.Seq != 2 {
		t.Errorf("the replay frontier is %+v, want the dead primary's unreplayed tuple 2", d)
	}
	killed[7].Seq, killed[7].OSeq, killed[8].Seq, killed[8].OSeq = 3, 3, 2, 2
	if d := DiffTraces(clean, killed, 0); d == nil || d.Class != ClassTupleMismatch || d.Index != 2 {
		t.Errorf("a reordered tail diffs as %+v, want a mismatch at tuple #2", d)
	}
}

func TestReplayDiffFrontier(t *testing.T) {
	// Recorded two tuples, backup granted only the first.
	events := []obs.Event{
		ev(1, 10, "primary/ftns", obs.TupleEmit, 1, 0, 64, 7, 0),
		ev(2, 20, "primary/ftns", obs.TupleEmit, 1, 1, 64, 7, 1),
		ev(3, 30, "secondary/ftns", obs.Replay, 1, 0, 0, 7, 0),
	}
	d := ReplayDiffScoped(events, "")
	if d == nil {
		t.Fatal("unreplayed frontier not diagnosed")
	}
	if d.Class != ClassUnreplayedFrontier || d.Index != 1 || d.A.OSeq != 1 {
		t.Fatalf("wrong diagnosis: class=%s index=%d a=%+v", d.Class, d.Index, d.A)
	}
	if len(d.Slice) == 0 {
		t.Fatal("empty slice")
	}

	// Fully replayed: no divergence. No replayer at all: no diagnosis.
	events = append(events, ev(4, 40, "secondary/ftns", obs.Replay, 1, 1, 0, 7, 1))
	if d := ReplayDiffScoped(events, ""); d != nil {
		t.Fatalf("healthy replay diagnosed: %s", d.Summary())
	}
	if d := ReplayDiffScoped(events[:2], ""); d != nil {
		t.Fatalf("recorder-only trace diagnosed: %s", d.Summary())
	}
}

func TestAnnotateAndReport(t *testing.T) {
	d := ReplayDiffScoped([]obs.Event{
		ev(1, 10, "primary/ftns", obs.TupleEmit, 1, 0, 64, 7, 0),
		ev(2, 20, "primary/ftns", obs.TupleEmit, 1, 1, 64, 7, 1),
		ev(3, 30, "secondary/ftns", obs.Replay, 1, 0, 0, 7, 0),
	}, "")
	Annotate(d, "failed_at_ns", 12345)
	rep := d.Report()
	for _, want := range []string{"replay frontier", "note: failed_at_ns=12345", "causal slice", "obj=7 oseq=1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	Annotate(nil, "k", 1) // nil-safe
	var n *Divergence
	if !strings.Contains(n.Summary(), "no divergence") {
		t.Error("nil summary")
	}
}
