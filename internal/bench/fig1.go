package bench

import (
	"fmt"

	"repro/internal/apps/memcached"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/sim"
)

// Fig1Row is one bar of Figure 1: the physical-memory occupancy of a Linux
// system running memcached at one input-size multiplier.
type Fig1Row struct {
	Multiplier int
	Ignored    float64 // % of RAM: unrecoverable kernel memory
	Delayed    float64 // % of RAM: recoverable kernel memory
	User       float64 // % of RAM: application memory
	Free       float64 // % of RAM
}

// Fig1Multipliers are the paper's x-axis values.
func Fig1Multipliers() []int { return []int{3, 30, 60, 90, 120, 150, 180} }

// Fig1 reproduces the §2.3 memory-dump experiment on the 64-core / 96 GB
// machine: boot a kernel, drive the memcached memory model to each input
// multiplier, and classify physical memory.
func Fig1(multipliers []int) ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, mult := range multipliers {
		row, err := fig1Row(mult)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig1Row(mult int) (Fig1Row, error) {
	s := sim.New(1)
	defer s.Shutdown()
	m := hw.New(s, hw.MemDumpMachine())
	part, err := m.NewPartition("linux", 0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		return Fig1Row{}, err
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "linux"})
	if err != nil {
		return Fig1Row{}, err
	}
	snap, err := memcached.ApplyLoad(k.Mem(), memcached.DefaultLoadModel(), mult)
	if err != nil {
		return Fig1Row{}, fmt.Errorf("bench: fig1 at %dx: %w", mult, err)
	}
	pct := func(b int64) float64 { return 100 * float64(b) / float64(snap.Total) }
	return Fig1Row{
		Multiplier: mult,
		Ignored:    pct(snap.Ignored),
		Delayed:    pct(snap.Delayed),
		User:       pct(snap.User),
		Free:       pct(snap.Free),
	}, nil
}

// FaultOutcomeRow is one row of the §2.2 fault-model sweep: the fate of a
// uniformly random memory error under a given memcached load.
type FaultOutcomeRow struct {
	Multiplier  int
	Corrected   bool
	KernelPanic float64 // fraction of injected faults
	Delayed     float64
	UserKill    float64
	None        float64
}

// FaultOutcomes injects n random memory errors per configuration and
// tabulates outcomes — the quantitative backing for the paper's claim that
// a memory error frequently takes down the whole stock-Linux stack.
func FaultOutcomes(multiplier, n int, corrected bool, seed int64) (FaultOutcomeRow, error) {
	row := FaultOutcomeRow{Multiplier: multiplier, Corrected: corrected}
	s := sim.New(seed)
	defer s.Shutdown()
	m := hw.New(s, hw.MemDumpMachine())
	part, err := m.NewPartition("linux", 0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		return row, err
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "linux"})
	if err != nil {
		return row, err
	}
	if _, err := memcached.ApplyLoad(k.Mem(), memcached.DefaultLoadModel(), multiplier); err != nil {
		return row, err
	}
	for i := 0; i < n; i++ {
		_, addr := m.RandomMemErrorAddr()
		class, err := k.Mem().ClassifyAddr(addr)
		if err != nil {
			return row, err
		}
		switch kmem.OutcomeOf(class, corrected) {
		case kmem.OutcomeKernelPanic:
			row.KernelPanic++
		case kmem.OutcomeDelayed:
			row.Delayed++
		case kmem.OutcomeUserKill:
			row.UserKill++
		default:
			row.None++
		}
	}
	total := float64(n)
	row.KernelPanic /= total
	row.Delayed /= total
	row.UserKill /= total
	row.None /= total
	return row, nil
}
