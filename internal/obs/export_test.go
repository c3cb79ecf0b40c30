package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// exportTracer drives a small mixed-kind scenario — det identity,
// notes, ring samples, several scopes — and returns the tracer with its
// retained stream.
func exportTracer(t *testing.T) *obs.Tracer {
	t.Helper()
	s := sim.New(7)
	tr := obs.New(s, obs.Config{Trace: true})
	p := tr.Scope("primary/ftns")
	log := tr.Scope("shm/ftns.log")
	for i := 0; i < 6; i++ {
		seq := int64(i)
		s.Schedule(time.Duration(100+17*i)*time.Microsecond, func() {
			p.EmitDet(obs.TupleEmit, 1, seq, 8, uint64(40+seq), seq)
			log.Emit(obs.RingDepth, 0, 0, 64*(seq+1))
			if seq%2 == 0 {
				p.EmitNote(obs.BatchFlush, 1, seq, 3, "deadline")
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestJSONLParseBackFidelity writes the stream with WriteJSONL, parses
// it back with ReadJSONL, and requires the round trip to be lossless:
// same count, same order, and every field — virtual timestamp, det
// identity, note — byte-for-byte equal.
func TestJSONLParseBackFidelity(t *testing.T) {
	tr := exportTracer(t)
	orig := tr.Events()
	if len(orig) == 0 {
		t.Fatal("scenario retained no events")
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("parse-back has %d events, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], orig[i])
		}
		if i > 0 && got[i].Order <= got[i-1].Order {
			t.Fatalf("event %d order %d not after %d", i, got[i].Order, got[i-1].Order)
		}
	}
}

// TestReadJSONLSkipsBlankAndReportsLine pins the ingestion contract:
// blank lines are skipped, a malformed line aborts with its number.
func TestReadJSONLSkipsBlankAndReportsLine(t *testing.T) {
	in := `{"order":1,"at":5,"scope":"x","kind":"tuple-emit"}

{"order":2,"at":9,"scope":"x","kind":"ack"}
`
	events, err := obs.ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].At != 5 || events[1].Kind != obs.AckSend {
		t.Fatalf("parsed %+v", events)
	}
	_, err = obs.ReadJSONL(strings.NewReader(in + "not json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("malformed line error = %v, want line 4", err)
	}
}

// TestChromeTraceParseBack parses the Chrome trace back out and checks
// the export against the retained stream: one metadata row per scope,
// one trace event per stream event, non-decreasing timestamps, and
// exact microsecond.nanosecond fidelity on every ts.
func TestChromeTraceParseBack(t *testing.T) {
	tr := exportTracer(t)
	orig := tr.Events()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   json.RawMessage `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var meta int
	var rows []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			meta++
			continue
		}
		rows = append(rows, string(e.TS))
	}
	if meta != 2 {
		t.Errorf("metadata rows = %d, want one per scope (2)", meta)
	}
	if len(rows) != len(orig) {
		t.Fatalf("trace rows = %d, want %d (one per event)", len(rows), len(orig))
	}
	last := -1.0
	for i, ts := range rows {
		// ts is rendered as exact microseconds with a 3-digit
		// nanosecond fraction; reconstruct and compare to the event.
		f, err := strconv.ParseFloat(ts, 64)
		if err != nil {
			t.Fatalf("row %d ts %q: %v", i, ts, err)
		}
		if f < last {
			t.Fatalf("row %d ts %s goes backwards", i, ts)
		}
		last = f
		want := fmt.Sprintf("%d.%03d", int64(orig[i].At)/1000, int64(orig[i].At)%1000)
		if ts != want {
			t.Errorf("row %d ts = %s, want %s (exact virtual time)", i, ts, want)
		}
	}
	// Critical-path tracks stacked back from their release can start
	// before t=0: a negative instant keeps its sign on the whole value.
	if ts := obs.ChromeTS(-1_500); ts != "-1.500" {
		t.Errorf("ChromeTS(-1500ns) = %s, want -1.500", ts)
	}
}

// TestQuantileBucketBoundaries pins the estimator's contract at exact
// power-of-two boundaries: the answer is the containing bucket's upper
// bound, clamped to the observed max, and never below for the top
// quantile.
func TestQuantileBucketBoundaries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("b", "ns")
	// 2^k lands in bucket [2^k, 2^(k+1)) whose upper bound is
	// 2^(k+1)-1; with max == 2^k the clamp returns the exact value.
	for _, v := range []int64{1, 2, 4, 8} {
		h.Observe(v)
	}
	if q := h.Quantile(0.25); q != 1 {
		t.Errorf("p25 = %d, want 1 (bucket [1,2) upper bound)", q)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3 (bucket [2,4) upper bound)", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Errorf("p100 = %d, want 8 (upper bound 15 clamped to max)", q)
	}
}

// TestQuantileClampsAndEdges covers the remaining edges: empty
// histograms, tiny quantiles ranking to the first observation, negative
// observations clamping to zero, and the max clamp when one bucket
// holds everything.
func TestQuantileClampsAndEdges(t *testing.T) {
	reg := obs.NewRegistry()
	empty := reg.Histogram("empty", "ns")
	for _, q := range []float64{0.001, 0.5, 1} {
		if v := empty.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, v)
		}
	}

	neg := reg.Histogram("neg", "ns")
	neg.Observe(-50)
	if neg.Quantile(1) != 0 {
		t.Error("negative observation did not clamp to 0")
	}
	var snap obs.HistogramSnap
	var ok bool
	if snap, ok = reg.Snapshot().Histogram("neg"); !ok || snap.Min != 0 || snap.Max != 0 {
		t.Errorf("neg snapshot = %+v,%v; want min=max=0", snap, ok)
	}

	one := reg.Histogram("one", "ns")
	one.Observe(700) // bucket [512,1024): upper 1023, clamped to max 700
	for _, q := range []float64{0.0001, 0.5, 1} {
		if v := one.Quantile(q); v != 700 {
			t.Errorf("single-value Quantile(%g) = %d, want 700 (max clamp)", q, v)
		}
	}

	big := reg.Histogram("big", "ns")
	big.Observe(int64(1) << 62) // top usable bucket: estimator must return exact max
	if v := big.Quantile(0.5); v != int64(1)<<62 {
		t.Errorf("top-bucket quantile = %d, want 2^62 (exact max, no overflow)", v)
	}
}

// TestSnapshotHistogramMissing pins the lookup contract for names that
// were never registered: ok=false and a zero summary.
func TestSnapshotHistogramMissing(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("present", "ns").Observe(4)
	s := reg.Snapshot()
	if _, ok := s.Histogram("present"); !ok {
		t.Fatal("registered histogram not found in snapshot")
	}
	snap, ok := s.Histogram("absent")
	if ok {
		t.Error("missing histogram reported ok=true")
	}
	if snap != (obs.HistogramSnap{}) {
		t.Errorf("missing histogram snap = %+v, want zero", snap)
	}
	if _, ok := (obs.Snapshot{}).Histogram("anything"); ok {
		t.Error("zero snapshot reported a histogram")
	}
}

// TestTraceWindowsNameTheFirstMovedWindow: a trace's digests are one line
// per process row per 100 ms of virtual time, in time order, and a run that
// moved one event is named by its first differing window — its start, its
// row, its event count — with that window's first event in the run.
func TestTraceWindowsNameTheFirstMovedWindow(t *testing.T) {
	run := func(late time.Duration) []obs.Window {
		s := sim.New(1)
		tr := obs.New(s, obs.Config{Trace: true})
		a, b := tr.Scope("a"), tr.Scope("b")
		s.Schedule(10*time.Millisecond, func() { a.Emit(obs.Heartbeat, 0, 1, 0) })
		s.Schedule(150*time.Millisecond, func() { b.Emit(obs.Heartbeat, 0, 2, 0) })
		s.Schedule(late, func() { a.Emit(obs.Heartbeat, 0, 3, 0) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		ws, err := obs.TraceWindows(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	pinned := run(120 * time.Millisecond)
	var file strings.Builder
	for _, w := range pinned {
		fmt.Fprintln(&file, w)
	}
	if len(pinned) != 3 || pinned[0].Row != "a" || pinned[1].Row != "a" || pinned[1].Events != 1 || pinned[2].Row != "b" ||
		pinned[1].Start != 100*time.Millisecond {
		t.Fatalf("windows %v, want a@0s, then a and b @100ms", pinned)
	}
	if d := obs.FirstMismatch([]byte(file.String()), pinned); d != "" {
		t.Errorf("the same run differs: %s", d)
	}
	d := obs.FirstMismatch([]byte(file.String()), run(121*time.Millisecond))
	if !strings.Contains(d, `run "100ms a 1 `) || !strings.Contains(d, `"ts":121000.000`) {
		t.Errorf("moved event reported as %q; want the 100ms window of row a and its event at 121 ms", d)
	}
}
