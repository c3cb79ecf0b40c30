package bench

import (
	"fmt"

	"repro/internal/apps/memcached"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kmem"
)

// memcachedMachine boots stock Linux on all eight nodes of the 64-core /
// 96 GB memory-dump machine and drives the memcached memory model to the
// given input multiplier. The caller shuts the baseline down.
func memcachedMachine(seed int64, mult int) (*core.Baseline, kmem.Snapshot, error) {
	cfg := core.DefaultConfig(seed)
	cfg.Profile = hw.MemDumpMachine()
	cfg.Placement = [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}
	base, err := core.NewBaseline(cfg)
	if err != nil {
		return nil, kmem.Snapshot{}, err
	}
	snap, err := memcached.ApplyLoad(base.Kernel.Mem(), memcached.DefaultLoadModel(), mult)
	if err != nil {
		base.Sim.Shutdown()
		return nil, snap, fmt.Errorf("memcached load at %dx: %w", mult, err)
	}
	return base, snap, nil
}

// fig1 reproduces the §2.3 memory-dump experiment (Figure 1): the
// physical-memory occupancy of a Linux system running memcached at the
// paper's input-size multipliers, every page classified as unrecoverable
// kernel memory (ignored), recoverable kernel memory (delayed), user
// memory, or free.
func fig1(seed int64, _ bool) (Report, error) {
	report := Report{Exp: "fig1", Seed: seed}
	for _, mult := range []int{3, 30, 60, 90, 120, 150, 180} {
		base, snap, err := memcachedMachine(seed, mult)
		if err != nil {
			return report, fmt.Errorf("bench: fig1: %w", err)
		}
		base.Sim.Shutdown()
		pct := func(b int64) float64 { return 100 * float64(b) / float64(snap.Total) }
		report.Points = append(report.Points, Point{
			Labels: []Label{label("input", fmt.Sprintf("%dx", mult))},
			Values: []Named{
				val("ignored_pct", pct(snap.Ignored), "%"),
				val("delayed_pct", pct(snap.Delayed), "%"),
				val("user_pct", pct(snap.User), "%"),
				val("free_pct", pct(snap.Free), "%"),
			},
		})
	}
	return report, nil
}

// faults is the §2.2 fault-model sweep: n uniformly random memory errors
// per memcached load, detected-uncorrected (DUE) and corrected (CE), and
// the share of them that meets each fate on stock Linux — the quantitative
// backing for the paper's claim that a memory error frequently takes down
// the whole software stack.
func faults(seed int64, _ bool) (Report, error) {
	const n = 20000
	report := Report{Exp: "faults", Seed: seed, Params: []Label{label("errors_per_cell", n)}}
	for _, mult := range []int{3, 90, 180} {
		for _, kind := range []string{"DUE", "CE"} {
			p, err := faultPoint(seed, mult, n, kind == "CE")
			if err != nil {
				return report, fmt.Errorf("bench: faults: %w", err)
			}
			p.Labels = []Label{label("load", fmt.Sprintf("%dx", mult)), label("kind", kind)}
			report.Points = append(report.Points, p)
		}
	}
	return report, nil
}

func faultPoint(seed int64, mult, n int, corrected bool) (Point, error) {
	base, _, err := memcachedMachine(seed, mult)
	if err != nil {
		return Point{}, err
	}
	defer base.Sim.Shutdown()
	count := make(map[kmem.Outcome]int)
	for i := 0; i < n; i++ {
		_, addr := base.Machine.RandomMemErrorAddr()
		class, err := base.Kernel.Mem().ClassifyAddr(addr)
		if err != nil {
			return Point{}, err
		}
		count[kmem.OutcomeOf(class, corrected)]++
	}
	pct := func(o kmem.Outcome) Metric { return Metric{Value: 100 * float64(count[o]) / float64(n), Unit: "%"} }
	return Point{Values: []Named{
		{"kernel_panic_pct", pct(kmem.OutcomeKernelPanic)},
		{"delayed_pct", pct(kmem.OutcomeDelayed)},
		{"user_kill_pct", pct(kmem.OutcomeUserKill)},
		{"absorbed_pct", pct(kmem.OutcomeNone)},
	}}, nil
}
