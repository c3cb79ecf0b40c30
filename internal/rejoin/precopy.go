package rejoin

// This file implements iterative pre-copy for epoch checkpoints
// (livecore-style): instead of stopping the world for the full state
// copy, the cutter copies each state component concurrently with
// execution over converging passes — pass n+1 copies only what was
// dirtied during pass n — and stops the scheduler only for the final
// residual delta. The final pause is then bounded by the workload's
// dirty rate times one pass, not by state size, which is what keeps
// epoch cuts cheap enough to take frequently.

import (
	"time"

	"repro/internal/kernel"
)

// Source is one replicated state component participating in iterative
// pre-copy. DirtyCounter is a monotone cumulative count of bytes dirtied
// since boot; the engine differences successive readings to estimate
// each pass's dirty set, so sources never track per-page state — a
// counter bump in each mutator is the whole integration burden.
type Source interface {
	// TotalBytes is the component's current full-copy footprint.
	TotalBytes() int
	// DirtyCounter is cumulative bytes dirtied since boot (monotone).
	DirtyCounter() uint64
}

// PassStat records one pre-copy pass for observability.
type PassStat struct {
	// Pass numbers the pass, 1-based; pass 1 is the full copy.
	Pass int
	// Copied is the bytes copied during this pass.
	Copied int
	// Dirtied is the bytes the workload dirtied while the pass ran —
	// the next pass's copy set.
	Dirtied int
}

// PreCopy drives converging copy passes over a set of sources.
type PreCopy struct {
	Sources []Source
	// PerByte is the modelled copy cost per byte; each pass pays
	// Copied × PerByte of contended CPU time on the cutter's task.
	PerByte time.Duration
	// MaxPasses bounds the iteration for workloads whose dirty rate
	// never converges below TargetDirty.
	MaxPasses int
	// TargetDirty stops iterating once the residual dirty estimate is
	// at or below this many bytes.
	TargetDirty int
}

// Run executes the converging passes on t, paying the modelled copy cost
// for each, and returns the residual dirty-byte estimate — the bytes the
// caller must copy under the final stop-the-world — plus per-pass stats.
// Run itself never stops the scheduler; the caller quiesces afterwards
// and pays finalDirty × PerByte inside the pause.
func (pc *PreCopy) Run(t *kernel.Task) (finalDirty int, passes []PassStat) {
	total := 0
	for _, s := range pc.Sources {
		total += s.TotalBytes()
	}
	maxPasses := pc.MaxPasses
	if maxPasses < 1 {
		maxPasses = 1
	}
	copySet := total
	dirty := total
	before, passes := make([]uint64, len(pc.Sources)), make([]PassStat, 0, maxPasses)
	for pass := 1; pass <= maxPasses; pass++ {
		for i, s := range pc.Sources {
			before[i] = s.DirtyCounter()
		}
		t.Compute(time.Duration(copySet) * pc.PerByte)
		dirtied := pc.dirtiedSince(before)
		passes = append(passes, PassStat{Pass: pass, Copied: copySet, Dirtied: dirtied})
		prev := dirty
		dirty = dirtied
		if dirty <= pc.TargetDirty || dirty >= prev {
			// Converged below target, or stopped shrinking — more
			// passes would only burn CPU without shortening the pause.
			break
		}
		copySet = dirty
	}
	return dirty, passes
}

// dirtiedSince sums per-source dirty deltas, capping each at the
// source's current footprint: re-dirtying the same state twice in one
// pass costs one recopy, not two.
func (pc *PreCopy) dirtiedSince(before []uint64) int {
	dirtied := 0
	for i, s := range pc.Sources {
		d := s.DirtyCounter() - before[i]
		if max := uint64(s.TotalBytes()); d > max {
			d = max
		}
		dirtied += int(d)
	}
	return dirtied
}
