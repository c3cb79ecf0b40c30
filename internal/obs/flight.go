package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// FlightDump is a forensic snapshot taken at a moment of interest —
// core captures one automatically when failover begins — merging every
// scope's recent-event ring into one timeline plus a metrics snapshot.
// It answers the questions a failover post-mortem asks: what was the
// last acked tuple, what batch was in flight, how far behind was the
// replay head, and what did the detector see before it fired.
type FlightDump struct {
	At      sim.Time `json:"at"` // virtual time of the dump, ns
	Events  []Event  `json:"events"`
	Metrics Snapshot `json:"metrics"`
	// Diagnosis is an optional pre-triage report appended by the causal
	// layer at failover: the first recorded-but-unreplayed tuple and its
	// causal slice, so a chaos-test failure arrives already pointed at
	// the divergence (filled by core via causal.ReplayDiffScoped).
	Diagnosis string `json:"diagnosis,omitempty"`
}

// FlightDump merges the flight rings of every scope, ordered by global
// emission order, and samples the metrics registry. Nil tracers yield
// nil — callers print nothing.
func (t *Tracer) FlightDump() *FlightDump {
	if t == nil {
		return nil
	}
	d := &FlightDump{At: t.sim.Now(), Metrics: t.reg.Snapshot()}
	for _, sc := range t.scopes {
		d.Events = append(d.Events, sc.Recent()...)
	}
	sort.Slice(d.Events, func(i, j int) bool { return d.Events[i].Order < d.Events[j].Order })
	return d
}

// LastEvent returns the most recent event of the given kind in the
// dump, reporting whether one exists.
func (d *FlightDump) LastEvent(k Kind) (Event, bool) {
	if d == nil {
		return Event{}, false
	}
	for i := len(d.Events) - 1; i >= 0; i-- {
		if d.Events[i].Kind == k {
			return d.Events[i], true
		}
	}
	return Event{}, false
}

// Tail returns a copy of the dump truncated to its last n events, with
// the timestamp and metrics retained — for console printing, where the
// full merged ring set is too long. The full dump stays available for
// JSON export.
func (d *FlightDump) Tail(n int) *FlightDump {
	if d == nil || len(d.Events) <= n {
		return d
	}
	t := *d
	t.Events = d.Events[len(d.Events)-n:]
	return &t
}

// WriteText renders the dump as a human-readable timeline: one line per
// event plus the sampled gauges — the forensic record a failover run
// prints instead of just a wall-clock number.
func (d *FlightDump) WriteText(w io.Writer) {
	if d == nil {
		return
	}
	fmt.Fprintf(w, "=== flight recorder dump @ t=%dns ===\n", d.At)
	for _, e := range d.Events {
		WriteEventLine(w, "  ", e)
	}
	if len(d.Metrics.Gauges) > 0 {
		fmt.Fprintln(w, "  -- gauges at dump --")
		for _, g := range d.Metrics.Gauges {
			fmt.Fprintf(w, "  %-34s %d\n", g.Name, g.Value)
		}
	}
	for _, h := range d.Metrics.Histograms {
		fmt.Fprintf(w, "  %-34s n=%d p50=%d p99=%d max=%d %s\n",
			h.Name, h.Count, h.P50, h.P99, h.Max, h.Unit)
	}
	if d.Diagnosis != "" {
		fmt.Fprintln(w, "  -- divergence diagnosis --")
		fmt.Fprint(w, d.Diagnosis)
		if !strings.HasSuffix(d.Diagnosis, "\n") {
			fmt.Fprintln(w)
		}
	}
}

// WriteEventLine renders one event as a line of text after indent: time,
// scope and kind in fixed columns, then the fields the event carries. The
// flight dump and the causal layer's reports print every event this way.
func WriteEventLine(w io.Writer, indent string, e Event) {
	fmt.Fprintf(w, "%st=%-14d %-22s %-15s", indent, int64(e.At), e.Scope, e.Kind)
	if e.TID != 0 {
		fmt.Fprintf(w, " tid=%d", e.TID)
	}
	if e.Seq != 0 {
		fmt.Fprintf(w, " seq=%d", e.Seq)
	}
	if e.Arg != 0 {
		fmt.Fprintf(w, " arg=%d", e.Arg)
	}
	if e.Obj != 0 || e.OSeq != 0 {
		fmt.Fprintf(w, " obj=%d oseq=%d", e.Obj, e.OSeq)
	}
	if e.Note != "" {
		fmt.Fprintf(w, " %s", e.Note)
	}
	fmt.Fprintln(w)
}
