package causal

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Divergence classes.
const (
	// ClassTupleMismatch: the two traces record different tuples at the
	// same position of the det tuple order — a genuine replay divergence.
	ClassTupleMismatch = "tuple-mismatch"
	// ClassMissingSuffix: one trace's recorded tuple stream is a strict
	// prefix of the other's — execution stopped (a kill) or never reached
	// the suffix; the divergent tuple is the first one the shorter run
	// never recorded.
	ClassMissingSuffix = "missing-suffix"
	// ClassUnreplayedFrontier: within one trace, the first tuple the
	// primary recorded that the backup never got granted — the replay
	// frontier at the moment the trace ends (for a failover flight dump:
	// the work the dead primary did that the survivor discarded).
	ClassUnreplayedFrontier = "unreplayed-frontier"
)

// Divergence is a first-divergence diagnosis: the exact det tuple
// <obj_id, Seq_obj> where two executions (or the two replicas of one
// execution) stop agreeing, plus the minimal causal slice explaining it.
type Divergence struct {
	Class string `json:"class"`
	// Index is the position in the aligned recorded-tuple order at which
	// the divergence occurs (0-based).
	Index int `json:"index"`
	// A and B are the divergent events of the respective traces; either
	// may be nil (a missing suffix has only the longer side's event; a
	// replay-frontier diagnosis has only the recorded side).
	A *obs.Event `json:"a,omitempty"`
	B *obs.Event `json:"b,omitempty"`
	// Notes are deterministic key=value annotations appended by the
	// caller (Annotate) — e.g. the virtual failover instant.
	Notes []string `json:"notes,omitempty"`
	// Slice is the divergent event's minimal causal slice: itself plus
	// its nearest happens-before ancestors, in emission order.
	Slice []obs.Event `json:"slice"`
}

// Annotate appends a deterministic key=value note to the diagnosis. The
// value must come from simulation state (a virtual-clock instant, a
// sequence number) — never from the host clock; ftvet enforces this the
// same way it does for trace attributes.
func Annotate(d *Divergence, key string, v int64) {
	if d == nil {
		return
	}
	d.Notes = append(d.Notes, fmt.Sprintf("%s=%d", key, v))
}

// event returns the divergent event itself: the B side when both exist
// (B is conventionally the suspect run), else whichever is present.
func (d *Divergence) event() *obs.Event {
	if d == nil {
		return nil
	}
	if d.B != nil {
		return d.B
	}
	return d.A
}

// Summary is the one-line form of the diagnosis: the exact first
// divergent tuple and what happened to it.
func (d *Divergence) Summary() string {
	if d == nil {
		return "no divergence: traces agree on the full det tuple order"
	}
	e := d.event()
	var what string
	switch d.Class {
	case ClassTupleMismatch:
		what = fmt.Sprintf("traces record different tuples (a: obj=%d oseq=%d gseq=%d tid=%d; b: obj=%d oseq=%d gseq=%d tid=%d)",
			d.A.Obj, d.A.OSeq, d.A.Seq, d.A.TID, d.B.Obj, d.B.OSeq, d.B.Seq, d.B.TID)
	case ClassMissingSuffix:
		side := "b"
		if d.A == nil {
			side = "a"
		}
		what = fmt.Sprintf("trace %s never records tuple obj=%d oseq=%d gseq=%d tid=%d (recorded at t=%dns in the other run)",
			side, e.Obj, e.OSeq, e.Seq, e.TID, int64(e.At))
	case ClassUnreplayedFrontier:
		what = fmt.Sprintf("tuple obj=%d oseq=%d gseq=%d tid=%d recorded at t=%dns was never granted to the backup (replay frontier)",
			e.Obj, e.OSeq, e.Seq, e.TID, int64(e.At))
	default:
		what = d.Class
	}
	return fmt.Sprintf("first divergence at recorded tuple #%d: %s", d.Index, what)
}

// WriteReport renders the full human-readable diagnosis: the summary,
// the notes, and the causal slice, one event per line.
func (d *Divergence) WriteReport(w io.Writer) {
	if d == nil {
		fmt.Fprintln(w, "no divergence: traces agree on the full det tuple order")
		return
	}
	fmt.Fprintln(w, d.Summary())
	for _, n := range d.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  causal slice (%d events):\n", len(d.Slice))
	for _, e := range d.Slice {
		obs.WriteEventLine(w, "    ", e)
	}
}

// Report is WriteReport into a string — the form core embeds into the
// failover flight dump.
func (d *Divergence) Report() string {
	var b strings.Builder
	d.WriteReport(&b)
	return b.String()
}

// WriteEvents renders events one per line in the report's slice format —
// the form ftdiag's slice subcommand prints.
func WriteEvents(w io.Writer, events []obs.Event) {
	for _, e := range events {
		obs.WriteEventLine(w, "    ", e)
	}
}

// recordedStream returns the indices of the trace's TupleEmit events in
// emission order — the det tuple order two same-seed traces are aligned
// on. Recording scopes only (the replayer never emits TupleEmit), across
// every generation.
func recordedStream(events []obs.Event) []int {
	var out []int
	for i, e := range events {
		if e.Kind == obs.TupleEmit {
			out = append(out, i)
		}
	}
	return out
}

// survivingStream is recordedStream less the tuples a promotion discarded.
// A promoted replica forks at its replay head, which its Unreplicated event
// (after its Promote, in the same scope) carries, and records on from there:
// the dead recorder's tuples at or past that head were never replayed, and
// the fork records them again.
func survivingStream(events []obs.Event) []int {
	var out []int
	promoted := map[string]bool{}
	for i, e := range events {
		switch {
		case e.Kind == obs.TupleEmit:
			out = append(out, i)
		case e.Kind == obs.Promote:
			promoted[e.Scope] = true
		case e.Kind == obs.Unreplicated && promoted[e.Scope]:
			out = slices.DeleteFunc(out, func(j int) bool { return events[j].Seq >= e.Seq })
		}
	}
	return out
}

// tupleIdentity is the alignment key: the full sequencing identity of a
// recorded section, independent of which scope (generation) recorded it.
func tupleIdentity(e obs.Event) TupleRef {
	return TupleRef{TID: e.TID, Seq: e.Seq, Obj: e.Obj, OSeq: e.OSeq}
}

// DiffTraces aligns two same-seed traces on their surviving recorded det
// tuple orders (survivingStream) and returns the first divergence, or nil when the streams agree
// over their full common extent and have equal length. The divergent
// event's causal slice — at most max events, 0 for DefaultSliceEvents,
// always ending with the divergent event — is computed in the trace that
// contains it (B when both do — B is conventionally the suspect/failed
// run).
func DiffTraces(a, b []obs.Event, max int) *Divergence {
	sa, sb := survivingStream(a), survivingStream(b)
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	for i := 0; i < n; i++ {
		ea, eb := a[sa[i]], b[sb[i]]
		if tupleIdentity(ea) != tupleIdentity(eb) {
			d := &Divergence{Class: ClassTupleMismatch, Index: i, A: &ea, B: &eb}
			d.Slice = Build(b).Slice(sb[i], max)
			return d
		}
	}
	switch {
	case len(sa) > n: // b stops early: a records tuples b never does
		ea := a[sa[n]]
		d := &Divergence{Class: ClassMissingSuffix, Index: n, A: &ea}
		d.Slice = Build(a).Slice(sa[n], max)
		return d
	case len(sb) > n: // a stops early
		eb := b[sb[n]]
		d := &Divergence{Class: ClassMissingSuffix, Index: n, B: &eb}
		d.Slice = Build(b).Slice(sb[n], max)
		return d
	}
	return nil
}

// ReplayDiffScoped diagnoses a single trace against itself: the primary's
// recorded tuple stream vs. one backup's replay grants, selected by trace
// scope ("" considers every replaying scope). It returns the first
// recorded tuple that was never granted — the replay frontier — or nil
// when every recorded tuple replayed. At a failover flight dump this names
// exactly the work the dead primary completed that the promoted survivor
// discarded (§3.5: output past the stable point). With an N-way replica
// set each backup replays at its own pace; scoping to the elected
// survivor's namespace scope makes the frontier name the work that
// failover actually discards, rather than whatever the laggiest backup
// happened to miss.
func ReplayDiffScoped(events []obs.Event, scope string) *Divergence {
	if len(events) == 0 {
		return nil
	}
	replayed := make(map[TupleRef]bool)
	anyReplay := false
	for _, e := range events {
		if e.Kind == obs.Replay && (e.Obj != 0 || e.OSeq != 0) &&
			(scope == "" || e.Scope == scope) {
			replayed[TupleRef{TID: e.TID, Seq: e.Seq, Obj: e.Obj, OSeq: e.OSeq}] = true
			anyReplay = true
		}
	}
	if !anyReplay {
		return nil // no replaying backup in this trace: nothing to compare
	}
	for i, si := range recordedStream(events) {
		e := events[si]
		if replayed[tupleIdentity(e)] {
			continue
		}
		d := &Divergence{Class: ClassUnreplayedFrontier, Index: i, A: &e}
		d.Slice = Build(events).Slice(si, 0)
		return d
	}
	return nil
}
