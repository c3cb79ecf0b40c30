package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var tr *obs.Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sc := tr.Scope("x")
	if sc != nil {
		t.Fatal("nil tracer returned a scope")
	}
	sc.Emit(obs.TupleEmit, 1, 2, 3) // must not panic
	if sc.Recent() != nil {
		t.Error("nil scope has events")
	}
	reg := tr.Registry()
	c := reg.Counter("c")
	c.Inc()
	g := reg.Gauge("g", func() int64 { return 7 })
	h := reg.Histogram("h", "ns")
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments accumulated values")
	}
	if s := reg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if d := tr.FlightDump(); d != nil {
		t.Error("nil tracer produced a dump")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("wait", "ns")
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket [2,4): upper bound 3
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket [512,1024)
	}
	if h.Count() != 100 || h.Sum() != 90*3+10*1000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.50); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %d, want 1000 (clamped to max)", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 = %d, want 1000", q)
	}
	z := reg.Histogram("zero", "ns")
	if z.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	z.Observe(0)
	if z.Quantile(0.5) != 0 {
		t.Error("all-zero histogram quantile not 0")
	}
}

func TestSnapshotSortedAndSampled(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("z.count").Add(4)
	reg.Counter("a.count").Inc()
	v := int64(10)
	reg.Gauge("m.lag", func() int64 { return v })
	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.count" || s.Counters[1].Value != 4 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if lag, ok := s.Gauge("m.lag"); !ok || lag != 10 {
		t.Fatalf("gauge m.lag = %d,%v", lag, ok)
	}
	v = 3
	if lag, _ := reg.Snapshot().Gauge("m.lag"); lag != 3 {
		t.Error("gauge not re-sampled at snapshot")
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name did not panic")
		}
	}()
	reg := obs.NewRegistry()
	reg.Counter("dup")
	reg.Counter("dup")
}

func TestFlightRingBoundedOldestFirst(t *testing.T) {
	s := sim.New(1)
	tr := obs.New(s, obs.Config{})
	sc := tr.Scope("rec")
	const n, extra = obs.DefaultFlightEvents, 6
	for i := 0; i < n+extra; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, func() {})
		sc.Emit(obs.TupleEmit, 1, int64(i), 0)
	}
	got := sc.Recent()
	if len(got) != n {
		t.Fatalf("flight ring kept %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if want := int64(extra + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestFlightDumpMergesScopesInOrder(t *testing.T) {
	s := sim.New(1)
	tr := obs.New(s, obs.Config{})
	a, b := tr.Scope("a"), tr.Scope("b")
	a.Emit(obs.TupleEmit, 0, 1, 0)
	b.Emit(obs.AckSend, 0, 2, 0)
	a.EmitDet(obs.BatchFlush, 0, 3, 0, 7, 2)
	d := tr.FlightDump()
	if len(d.Events) != 3 {
		t.Fatalf("dump has %d events", len(d.Events))
	}
	for i, want := range []int64{1, 2, 3} {
		if d.Events[i].Seq != want {
			t.Errorf("dump[%d].Seq = %d, want %d", i, d.Events[i].Seq, want)
		}
	}
	if e, ok := d.LastEvent(obs.AckSend); !ok || e.Seq != 2 {
		t.Errorf("LastEvent(AckSend) = %+v,%v", e, ok)
	}
	var buf bytes.Buffer
	d.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("ack")) {
		t.Error("text dump missing ack event")
	}
	if !bytes.Contains(buf.Bytes(), []byte("seq=3 obj=7 oseq=2")) {
		t.Errorf("text dump drops the per-object sequencing identity:\n%s", buf.String())
	}
}

// traceBytes drives a small deterministic scenario and returns its
// Chrome trace.
func traceBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	s := sim.New(seed)
	tr := obs.New(s, obs.Config{Trace: true})
	sc := tr.Scope("primary/ftns")
	ring := tr.Scope("shm/log")
	for i := 0; i < 5; i++ {
		seq := int64(i)
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			sc.Emit(obs.DetEnter, 1, seq, 0)
			sc.EmitNote(obs.DetExit, 1, seq, 0, "ok")
			ring.Emit(obs.RingDepth, 0, 0, 128*(seq+1))
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	a := traceBytes(t, 1)
	if !json.Valid(a) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", a)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	// 2 process_name metadata + 15 events.
	if len(doc.TraceEvents) != 17 {
		t.Errorf("trace has %d events, want 17", len(doc.TraceEvents))
	}
	if !bytes.Equal(a, traceBytes(t, 1)) {
		t.Error("two identical runs produced different trace bytes")
	}
}

func TestJSONLRoundTrips(t *testing.T) {
	s := sim.New(1)
	tr := obs.New(s, obs.Config{Trace: true})
	tr.Scope("x").EmitNote(obs.Heartbeat, 0, 9, 0, "beat")
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var e struct {
		Kind  string `json:"kind"`
		Scope string `json:"scope"`
		Seq   int64  `json:"seq"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "heartbeat" || e.Scope != "x" || e.Seq != 9 {
		t.Errorf("round-trip = %+v", e)
	}
}

func TestDisabledTracerKeepsNoStream(t *testing.T) {
	s := sim.New(1)
	tr := obs.New(s, obs.Config{}) // flight rings only
	sc := tr.Scope("a")
	for i := 0; i < 1000; i++ {
		sc.Emit(obs.TupleEmit, 0, int64(i), 0)
	}
	if len(tr.Events()) != 0 {
		t.Error("disabled tracer retained a full event stream")
	}
	if n := len(sc.Recent()); n != obs.DefaultFlightEvents {
		t.Errorf("flight ring holds %d, want %d", n, obs.DefaultFlightEvents)
	}
}
