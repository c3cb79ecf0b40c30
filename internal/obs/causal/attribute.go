package causal

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Stage is one segment of a committed output's critical path.
type Stage int

const (
	// StageSeqWait is the time the emitting thread waited for its det
	// sequencer shard lock (DetEnter.Arg).
	StageSeqWait Stage = iota
	// StageReplayGrant is the time the backup's shadow thread sat parked
	// before the grant of the same tuple (Replay.Arg).
	StageReplayGrant
	// StageRingReserve is sender blocking on ring reservation between the
	// tuple's emission and its flush (SpanReserve.Arg on the paired ring).
	StageRingReserve
	// StageBatchResidency is the time the tuple sat buffered in an open
	// batch before its flush published it.
	StageBatchResidency
	// StageTransfer is ring propagation: flush to the delivery that
	// reached the output's watermark.
	StageTransfer
	// StageCommitWait is the output-commit stall itself
	// (OutputReleased.Arg): held at the watermark until receipt.
	StageCommitWait
	NumStages
)

var stageNames = [NumStages]string{
	"seq-wait",
	"replay-grant",
	"ring-reserve",
	"batch-residency",
	"transfer",
	"commit-wait",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// TupleRef identifies the det tuple whose emission an output's stability
// hinged on — the last tuple recorded before the watermark was armed.
type TupleRef struct {
	TID  int32  `json:"tid"`
	Seq  int64  `json:"gseq"`
	Obj  uint64 `json:"obj"`
	OSeq int64  `json:"oseq"`
}

// OutputPath is the critical-path breakdown of one committed output.
type OutputPath struct {
	Scope      string           `json:"scope"`
	Watermark  int64            `json:"watermark"`
	HeldAt     sim.Time         `json:"held_at"`
	ReleasedAt sim.Time         `json:"released_at"`
	HasTuple   bool             `json:"has_tuple"`
	Tuple      TupleRef         `json:"tuple"`
	Stages     [NumStages]int64 `json:"stages_ns"`
}

// Total is the sum of the path's stage durations — the end-to-end latency
// the stages explain (stages can overlap in wall time; the sum is the
// attribution total, not an elapsed-time claim).
func (o *OutputPath) Total() int64 {
	var t int64
	for _, v := range o.Stages {
		t += v
	}
	return t
}

// StageStat is the exact offline distribution of one stage across every
// committed output in the trace (nearest-rank percentiles over the full
// sorted sample, not streaming bucket approximations).
type StageStat struct {
	Stage   string `json:"stage"`
	Count   int    `json:"count"` // outputs with a nonzero duration
	TotalNs int64  `json:"total_ns"`
	P50     int64  `json:"p50_ns"`
	P90     int64  `json:"p90_ns"`
	P99     int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Attribution is the per-output critical-path analysis of one trace.
type Attribution struct {
	Outputs []OutputPath `json:"outputs"`
	Stages  []StageStat  `json:"stages"`
}

// Attribute computes the critical-path attribution of every committed
// output in the graph's trace. For each OutputReleased at watermark W it
// locates the last tuple recorded before the hold, the flush that
// published it, the delivery that reached W, and the replay grant of the
// same tuple, and charges each stage from the attributes those events
// carry. A trace with no output-commit stalls yields an Attribution with
// no outputs and all-zero stages.
func Attribute(g *Graph) *Attribution {
	a := &Attribution{}
	streams, _, _ := g.census()

	// Per-scope ordered tuple-emit census with each emit's section-enter
	// wait, plus the replay-grant waits keyed by tuple identity.
	type emitInfo struct {
		idx     int
		enterNs int64
	}
	emits := make(map[string][]emitInfo)
	lastEnter := make(map[laneKey]int64)
	heldIdx := make(map[watermarkKey]int)
	replayNs := make(map[tupleKey]int64)
	for i, e := range g.Events {
		switch e.Kind {
		case obs.DetEnter:
			lastEnter[laneKey{e.Scope, e.TID}] = e.Arg
		case obs.TupleEmit:
			emits[e.Scope] = append(emits[e.Scope], emitInfo{idx: i, enterNs: lastEnter[laneKey{e.Scope, e.TID}]})
		case obs.Replay:
			if e.Obj != 0 || e.OSeq != 0 {
				tk := tupleKey{e.Obj, e.OSeq}
				if _, dup := replayNs[tk]; !dup {
					replayNs[tk] = e.Arg
				}
			}
		case obs.OutputHeld:
			heldIdx[watermarkKey{e.Scope, e.Seq}] = i
		}
	}

	for _, s := range streams {
		if len(s.releases) == 0 {
			continue
		}
		ring := pairRing(streams, s.name)
		se := emits[s.name]
		dp := 0 // deliver pointer; release watermarks are monotone per scope
		for _, ri := range s.releases {
			rel := g.Events[ri]
			out := OutputPath{
				Scope:      s.name,
				Watermark:  rel.Seq,
				ReleasedAt: rel.At,
			}
			out.Stages[StageCommitWait] = rel.Arg
			hi, hasHeld := heldIdx[watermarkKey{s.name, rel.Seq}]
			if !hasHeld {
				a.Outputs = append(a.Outputs, out)
				continue
			}
			held := g.Events[hi]
			out.HeldAt = held.At

			// E: last tuple recorded before the hold.
			ei := sort.Search(len(se), func(k int) bool {
				return g.Events[se[k].idx].Order >= held.Order
			}) - 1
			var emitEv obs.Event
			if ei >= 0 {
				emitEv = g.Events[se[ei].idx]
				out.HasTuple = true
				out.Tuple = TupleRef{TID: emitEv.TID, Seq: emitEv.Seq, Obj: emitEv.Obj, OSeq: emitEv.OSeq}
				out.Stages[StageSeqWait] = se[ei].enterNs
				out.Stages[StageReplayGrant] = replayNs[tupleKey{emitEv.Obj, emitEv.OSeq}]
			}

			// F: the flush that published E (first flush after the emit).
			var flushEv obs.Event
			hasFlush := false
			if out.HasTuple {
				fi := sort.Search(len(s.flushes), func(k int) bool {
					return g.Events[s.flushes[k]].Order > emitEv.Order
				})
				if fi < len(s.flushes) {
					flushEv = g.Events[s.flushes[fi]]
					hasFlush = true
					if d := int64(flushEv.At.Sub(emitEv.At)); d > 0 {
						out.Stages[StageBatchResidency] = d
					}
				}
			}

			if ring != nil {
				// Ring reservation blocking between emit and flush.
				if out.HasTuple && hasFlush {
					for _, rvi := range ring.reserves {
						o := g.Events[rvi].Order
						if o > emitEv.Order && o < flushEv.Order {
							out.Stages[StageRingReserve] += g.Events[rvi].Arg
						}
					}
				}
				// D: the delivery that reached the output's watermark.
				for dp < len(ring.delivers) && g.Events[ring.delivers[dp]].Seq < rel.Seq {
					dp++
				}
				if hasFlush && dp < len(ring.delivers) {
					del := g.Events[ring.delivers[dp]]
					if d := int64(del.At.Sub(flushEv.At)); d > 0 && del.Order < rel.Order {
						out.Stages[StageTransfer] = d
					}
				}
			}
			a.Outputs = append(a.Outputs, out)
		}
	}

	a.Stages = make([]StageStat, NumStages)
	samples := make([]int64, 0, len(a.Outputs))
	for st := Stage(0); st < NumStages; st++ {
		stat := StageStat{Stage: st.String()}
		samples = samples[:0]
		for i := range a.Outputs {
			v := a.Outputs[i].Stages[st]
			samples = append(samples, v)
			stat.TotalNs += v
			if v > 0 {
				stat.Count++
			}
			if v > stat.MaxNs {
				stat.MaxNs = v
			}
		}
		if len(samples) > 0 {
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			stat.P50 = rank(samples, 50)
			stat.P90 = rank(samples, 90)
			stat.P99 = rank(samples, 99)
		}
		a.Stages[st] = stat
	}
	return a
}

// rank is the nearest-rank percentile over a sorted sample.
func rank(sorted []int64, q int) int64 {
	return sorted[(len(sorted)-1)*q/100]
}

// WriteText renders the attribution as a deterministic fixed-format
// report: the per-stage distribution table plus the slowest outputs with
// their full breakdowns. Byte-identical across same-seed runs; the repo
// pins it with a golden.
func (a *Attribution) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== critical-path attribution: %d committed outputs ==\n", len(a.Outputs))
	if len(a.Outputs) == 0 {
		fmt.Fprintln(w, "no output-commit stalls in trace")
		return
	}
	fmt.Fprintf(w, "%-16s %8s %12s %12s %12s %12s %14s\n",
		"stage", "nonzero", "p50(ns)", "p90(ns)", "p99(ns)", "max(ns)", "total(ns)")
	for _, st := range a.Stages {
		fmt.Fprintf(w, "%-16s %8d %12d %12d %12d %12d %14d\n",
			st.Stage, st.Count, st.P50, st.P90, st.P99, st.MaxNs, st.TotalNs)
	}
	top := a.slowest(5)
	if len(top) > 0 {
		fmt.Fprintln(w, "slowest outputs (by attributed total):")
		for _, o := range top {
			fmt.Fprintf(w, "  watermark=%-6d scope=%-16s total=%dns", o.Watermark, o.Scope, o.Total())
			for st := Stage(0); st < NumStages; st++ {
				if o.Stages[st] != 0 {
					fmt.Fprintf(w, " %s=%dns", st, o.Stages[st])
				}
			}
			if o.HasTuple {
				fmt.Fprintf(w, " tuple obj=%d oseq=%d gseq=%d tid=%d",
					o.Tuple.Obj, o.Tuple.OSeq, o.Tuple.Seq, o.Tuple.TID)
			}
			fmt.Fprintln(w)
		}
	}
}

// slowest returns the n slowest outputs by attributed total, ties broken
// by scope then watermark so the order is deterministic.
func (a *Attribution) slowest(n int) []OutputPath {
	out := append([]OutputPath(nil), a.Outputs...)
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Total(), out[j].Total()
		if ti != tj {
			return ti > tj
		}
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Watermark < out[j].Watermark
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteCritPath renders the attribution as a Perfetto-compatible Chrome
// trace: one process per emitting scope, one track (tid) per committed
// output, with the output's residency → transfer → commit-wait segments
// as B/E slices laid end to end on the virtual clock. Fixed formatting:
// byte-identical across same-seed runs.
func (a *Attribution) WriteCritPath(w io.Writer) error {
	fmt.Fprint(w, "{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
	}
	var scopes []string
	pid := make(map[string]int)
	for i := range a.Outputs {
		s := a.Outputs[i].Scope
		if _, ok := pid[s]; !ok {
			pid[s] = len(scopes)
			scopes = append(scopes, s)
			sep()
			fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"critpath:%s"}}`, pid[s], s)
		}
	}
	track := make(map[string]int)
	for i := range a.Outputs {
		o := &a.Outputs[i]
		track[o.Scope]++
		tid := track[o.Scope]
		p := pid[o.Scope]
		// Segment boundaries, monotone: residency ends at flush = held -
		// transfer... reconstruct from stage durations backwards from the
		// release instant so the track is self-consistent even when the
		// stages overlapped in wall time.
		end := int64(o.ReleasedAt)
		bounds := [NumStages + 1]int64{}
		bounds[NumStages] = end
		for st := NumStages - 1; st >= 0; st-- {
			bounds[st] = bounds[st+1] - o.Stages[st]
		}
		for st := Stage(0); st < NumStages; st++ {
			if o.Stages[st] <= 0 {
				continue
			}
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"B","pid":%d,"tid":%d,"ts":%s,"args":{"watermark":%d}}`,
				st.String(), p, tid, obs.ChromeTS(bounds[st]), o.Watermark)
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"E","pid":%d,"tid":%d,"ts":%s}`,
				st.String(), p, tid, obs.ChromeTS(bounds[st+1]))
		}
	}
	_, err := fmt.Fprint(w, "]}\n")
	return err
}
