// Package causal reconstructs a happens-before graph over the obs event
// stream and computes trace-level diagnoses from it: per-committed-output
// critical-path attribution (Attribute) and cross-replica first-divergence
// diagnosis (DiffTraces, ReplayDiffScoped).
//
// The graph's edges come from the replication protocol itself:
//
//   - lane order: consecutive events on one (scope, tid) lane;
//   - per-object det order: consecutive det-section events on one
//     sequencing object <obj_id> within a scope — the order the sharded
//     sequencer serializes, carried on events as <Obj, OSeq>;
//   - record→replay: the primary's TupleEmit of <obj, Seq_obj> precedes
//     the backup's Replay grant of the same tuple;
//   - tuple→flush: a tuple precedes the batch flush that published it;
//   - flush→deliver: a flush at sent-watermark S precedes the first ring
//     delivery whose delivered watermark reaches S (the shm FIFO);
//   - watermark→release: an output held at watermark W is released by the
//     first receipt (RingDeliver) or explicit ack (AckSend) reaching W.
//
// Because every input event is derived from the virtual clock, everything
// computed here is a pure function of the trace: same seed, same graph,
// byte-identical reports. The package is a sanctioned nondet sink in the
// same sense as obs itself — diagnosis strings may carry any value that
// is itself deterministic, and ftvet flags wall-clock values smuggled in.
package causal

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// Graph is the happens-before DAG over one trace: nodes are indices into
// Events, edges point from cause to effect and are stored as per-node
// parent lists (effect → causes), which is the direction slicing walks.
type Graph struct {
	Events  []obs.Event
	parents [][]int32
}

// DefaultSliceEvents bounds a causal slice: enough ancestry to read the
// story of one divergent tuple without replaying the whole trace.
const DefaultSliceEvents = 32

// edge records from → to (from happens-before to). Duplicate parents are
// dropped; parent lists stay in insertion order, which is deterministic.
func (g *Graph) edge(from, to int) {
	if from == to {
		return
	}
	for _, p := range g.parents[to] {
		if int(p) == from {
			return
		}
	}
	g.parents[to] = append(g.parents[to], int32(from))
}

// Parents returns the direct causes of event i, in insertion order.
func (g *Graph) Parents(i int) []int {
	out := make([]int, len(g.parents[i]))
	for j, p := range g.parents[i] {
		out[j] = int(p)
	}
	return out
}

type laneKey struct {
	scope string
	tid   int32
}

type tupleKey struct {
	obj  uint64
	oseq int64
}

type scopeObjKey struct {
	scope string
	obj   uint64
}

type watermarkKey struct {
	scope string
	seq   int64
}

// Build constructs the happens-before graph for one trace. Events must be
// in emission order (as written by the tracer); the builder is a single
// forward pass plus one watermark-pairing pass, both deterministic.
func Build(events []obs.Event) *Graph {
	g := &Graph{Events: events, parents: make([][]int32, len(events))}

	laneLast := make(map[laneKey]int)
	objLast := make(map[scopeObjKey]int)
	emitOf := make(map[tupleKey]int)
	pendingEmits := make(map[string][]int)
	held := make(map[watermarkKey]int)

	for i, e := range events {
		lk := laneKey{e.Scope, e.TID}
		if p, ok := laneLast[lk]; ok {
			g.edge(p, i)
		}
		laneLast[lk] = i

		switch e.Kind {
		case obs.DetEnter, obs.DetExit, obs.TupleEmit, obs.Replay:
			if e.Obj == 0 && e.OSeq == 0 {
				break // legacy event without the sequencing identity
			}
			ok := scopeObjKey{e.Scope, e.Obj}
			if p, seen := objLast[ok]; seen {
				g.edge(p, i)
			}
			objLast[ok] = i
			switch e.Kind {
			case obs.TupleEmit:
				tk := tupleKey{e.Obj, e.OSeq}
				if _, dup := emitOf[tk]; !dup {
					emitOf[tk] = i
				}
				pendingEmits[e.Scope] = append(pendingEmits[e.Scope], i)
			case obs.Replay:
				if p, seen := emitOf[tupleKey{e.Obj, e.OSeq}]; seen {
					g.edge(p, i)
				}
			}
		case obs.BatchFlush:
			for _, p := range pendingEmits[e.Scope] {
				g.edge(p, i)
			}
			delete(pendingEmits, e.Scope)
		case obs.OutputHeld:
			held[watermarkKey{e.Scope, e.Seq}] = i
		case obs.OutputReleased:
			wk := watermarkKey{e.Scope, e.Seq}
			if p, ok := held[wk]; ok {
				g.edge(p, i)
				delete(held, wk)
			}
		}
	}

	g.linkWatermarks()
	return g
}

// scopeStreams is the per-scope event-index census the watermark pass and
// the attribution pass both consume.
type scopeStreams struct {
	name     string
	flushes  []int // BatchFlush
	delivers []int // RingDeliver
	reserves []int // SpanReserve
	acks     []int // AckSend
	releases []int // OutputReleased
}

// census builds the per-scope streams in scope first-appearance order,
// plus the global ack list in emission order.
func (g *Graph) census() (streams []*scopeStreams, byName map[string]*scopeStreams, acks []int) {
	byName = make(map[string]*scopeStreams)
	get := func(name string) *scopeStreams {
		if s, ok := byName[name]; ok {
			return s
		}
		s := &scopeStreams{name: name}
		byName[name] = s
		streams = append(streams, s)
		return s
	}
	for i, e := range g.Events {
		switch e.Kind {
		case obs.BatchFlush:
			s := get(e.Scope)
			s.flushes = append(s.flushes, i)
		case obs.RingDeliver:
			s := get(e.Scope)
			s.delivers = append(s.delivers, i)
		case obs.SpanReserve:
			s := get(e.Scope)
			s.reserves = append(s.reserves, i)
		case obs.AckSend:
			s := get(e.Scope)
			s.acks = append(s.acks, i)
			acks = append(acks, i)
		case obs.OutputReleased:
			s := get(e.Scope)
			s.releases = append(s.releases, i)
		}
	}
	return streams, byName, acks
}

// pairRing resolves which ring scope delivers a flushing scope's
// transfers: the scope whose name contains the flusher's base name +
// ".log" (core wires "primary/ftns" → "shm/ftns.log"); when no name
// matches and exactly one scope delivers at all, that one is the pair.
func pairRing(streams []*scopeStreams, flusher string) *scopeStreams {
	want := flusher[strings.LastIndexByte(flusher, '/')+1:] + ".log"
	var sole *scopeStreams
	nDeliver := 0
	for _, s := range streams {
		if len(s.delivers) == 0 {
			continue
		}
		nDeliver++
		sole = s
		if strings.Contains(s.name, want) {
			return s
		}
	}
	if nDeliver == 1 {
		return sole
	}
	return nil
}

// linkWatermarks adds the cross-scope watermark edges: flush→deliver on
// the paired ring, and deliver/ack→release for each output-commit stall.
// All pairings walk monotone watermark streams with two-pointer scans.
func (g *Graph) linkWatermarks() {
	streams, _, acks := g.census()
	for _, s := range streams {
		if len(s.flushes) == 0 && len(s.releases) == 0 {
			continue
		}
		ring := pairRing(streams, s.name)
		if ring != nil {
			j := 0
			for _, fi := range s.flushes {
				fseq := g.Events[fi].Seq
				for j < len(ring.delivers) && g.Events[ring.delivers[j]].Seq < fseq {
					j++
				}
				if j < len(ring.delivers) && g.Events[ring.delivers[j]].Order > g.Events[fi].Order {
					g.edge(fi, ring.delivers[j])
				}
			}
			k := 0
			for _, ri := range s.releases {
				w := g.Events[ri].Seq
				for k < len(ring.delivers) && g.Events[ring.delivers[k]].Seq < w {
					k++
				}
				if k < len(ring.delivers) && g.Events[ring.delivers[k]].Order < g.Events[ri].Order {
					g.edge(ring.delivers[k], ri)
				}
			}
		}
		a := 0
		for _, ri := range s.releases {
			w := g.Events[ri].Seq
			for a < len(acks) && g.Events[acks[a]].Seq < w {
				a++
			}
			if a < len(acks) && g.Events[acks[a]].Order < g.Events[ri].Order {
				g.edge(acks[a], ri)
			}
		}
	}
}

// Slice returns the minimal causal slice of event root: the root plus up
// to max-1 of its nearest ancestors (breadth-first over the parent lists,
// so direct causes come before remote history), in emission order. max <=
// 0 selects DefaultSliceEvents. The slice is never empty: it always
// contains the root itself.
func (g *Graph) Slice(root, max int) []obs.Event {
	if root < 0 || root >= len(g.Events) {
		return nil
	}
	if max <= 0 {
		max = DefaultSliceEvents
	}
	seen := map[int]bool{root: true}
	queue := []int{root}
	for qi := 0; qi < len(queue) && len(queue) < max; qi++ {
		for _, p := range g.parents[queue[qi]] {
			if !seen[int(p)] {
				seen[int(p)] = true
				queue = append(queue, int(p))
				if len(queue) >= max {
					break
				}
			}
		}
	}
	sort.Ints(queue)
	out := make([]obs.Event, len(queue))
	for i, idx := range queue {
		out[i] = g.Events[idx]
	}
	return out
}
