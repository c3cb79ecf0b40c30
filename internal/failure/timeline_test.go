package failure_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// timeline is what a detector pair's run leaves behind: a digest of every
// detector event's (At, Kind, Seq, Arg) in emission order, their count and
// the last of them, the secondary's OnFail instant (-1 if it never fired),
// each side's Beats, IPIs and heart-beats sent, and the thread ID each
// kernel hands its next task.
type timeline struct {
	events       int
	digest, last string
	failedAt     sim.Time
	beats, ipis  [2]int64
	sent         [2]int64
	nextTID      [2]int
}

func runTimeline(t *testing.T, fault func(p *pair), until time.Duration) timeline {
	t.Helper()
	p := newPairWith(t, failure.DefaultConfig(), true)
	tl := timeline{failedAt: -1}
	p.sd.OnFail(func() { tl.failedAt = p.sim.Now() })
	if fault != nil {
		fault(p)
	}
	if err := p.sim.RunUntil(sim.Time(until)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, e := range p.tr.Events() {
		tl.events++
		tl.last = fmt.Sprintf("%v %s %v %d %d", e.At, e.Scope, e.Kind, e.Seq, e.Arg)
		fmt.Fprintln(h, tl.last)
	}
	tl.digest = fmt.Sprintf("%016x", h.Sum64())
	tl.beats = [2]int64{p.pd.Beats, p.sd.Beats}
	tl.ipis = [2]int64{p.pd.IPIs, p.sd.IPIs}
	tl.sent = [2]int64{p.toS.Stats().Messages, p.toP.Stats().Messages}
	for i, k := range []*kernel.Kernel{p.pk, p.sk} {
		tl.nextTID[i] = k.Spawn("probe", func(*kernel.Task) {}).TID()
	}
	return tl
}

// TestDetectorTimelineIsPinned pins a detector pair's observable timeline —
// healthy for 1 s, the primary panicked at 1 s, hung at 1 s, and killed by
// a machine-checked core fail-stop at 1 s — to the values the stackful
// hb-send and hb-monitor tasks produced: the event chain that replaced them
// draws where they drew, so no event, instant or thread ID moves.
func TestDetectorTimelineIsPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault func(p *pair)
		want  timeline
	}{
		{"healthy", nil, timeline{events: 200, digest: "f5d33023a510e5b3", last: "990.00067ms primary/detector heartbeat 100 0", failedAt: -1, beats: [2]int64{100, 100}, sent: [2]int64{101, 101}, nextTID: [2]int{3, 3}}},
		{"panic", func(p *pair) { p.sim.Schedule(time.Second, func() { p.pk.Panic("injected", nil) }) }, timeline{events: 203, digest: "f656bd62464a6456", last: "1.04000067s secondary/detector failover 0 0", failedAt: 1040000670, beats: [2]int64{100, 100}, sent: [2]int64{100, 105}, nextTID: [2]int{3, 4}}},
		{"hang", func(p *pair) { p.sim.Schedule(time.Second, p.pk.Domain().Hang) }, timeline{events: 204, digest: "b0ccd934359d370a", last: "1.04000067s secondary/detector failover 0 0", failedAt: 1040000670, beats: [2]int64{100, 100}, ipis: [2]int64{0, 1}, sent: [2]int64{100, 105}, nextTID: [2]int{3, 4}}},
		{"mca", func(p *pair) {
			p.mach.InjectAfter(time.Second, hw.Fault{Kind: hw.CoreFailStop, Node: 0, Core: 1, Addr: -1})
		}, timeline{events: 202, digest: "014483fbddd82f61", last: "1s secondary/detector failover 0 0", failedAt: 1000000000, beats: [2]int64{100, 100}, sent: [2]int64{100, 100}, nextTID: [2]int{3, 4}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			until := 2 * time.Second
			if c.fault == nil {
				until = time.Second
			}
			if got := runTimeline(t, c.fault, until); got != c.want {
				t.Errorf("timeline moved:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// TestBeatCycleAllocatesNothing: once a healthy pair is warm, a beat —
// sent, delivered, counted, its time-out re-armed — touches no host heap.
func TestBeatCycleAllocatesNothing(t *testing.T) {
	p := newPair(t, failure.DefaultConfig())
	if err := p.sim.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	beats := p.sd.Beats
	if n := testing.AllocsPerRun(10, func() { p.sim.RunFor(100 * time.Millisecond) }); n != 0 {
		t.Errorf("100 ms of beats allocated %.1f times, want 0", n)
	}
	if got := p.sd.Beats - beats; got != 110 {
		t.Errorf("%d beats in 1.1 s, want 110", got)
	}
}
