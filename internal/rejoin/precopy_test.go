package rejoin

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestPreCopyConverges drives the iterative pre-copy engine against a
// source whose dirty rate is low enough to converge: each pass must copy
// strictly less than the one before, and the final dirty residue — what
// the stop-the-world cut pays for — must be bounded by the dirty rate,
// not the state size.
func TestPreCopyConverges(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	pp, _ := m.NewPartition("p", 0, 1, 2, 3)
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "p", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1 << 20
	const rate = 100
	var finalDirty int
	var passes []PassStat
	pk.Spawn("precopy", func(tk *kernel.Task) {
		pc := &PreCopy{
			Sources:     []Source{rateSource{tk, total, rate}},
			PerByte:     time.Nanosecond,
			MaxPasses:   8,
			TargetDirty: 4 << 10,
		}
		finalDirty, passes = pc.Run(tk)
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(passes) < 2 {
		t.Fatalf("pre-copy took %d passes, want convergence over several", len(passes))
	}
	if passes[0].Copied != total {
		t.Errorf("first pass copied %d, want the full %d", passes[0].Copied, total)
	}
	for i := 1; i < len(passes); i++ {
		if passes[i].Copied >= passes[i-1].Copied {
			t.Errorf("pass %d copied %d, not less than pass %d's %d",
				i+1, passes[i].Copied, i, passes[i-1].Copied)
		}
	}
	// 1 MiB at 1 ns/B with 100 B/µs dirty rate: the residue must be within
	// an order of the rate*pass-time product, nowhere near the state size.
	if finalDirty > total/8 {
		t.Errorf("final dirty residue %d not bounded by the dirty rate (state %d)", finalDirty, total)
	}
}

// rateSource is a component of fixed size that the workload dirties at a
// steady rate bytes per microsecond of virtual time.
type rateSource struct {
	tk          *kernel.Task
	total, rate int
}

func (r rateSource) TotalBytes() int { return r.total }
func (r rateSource) DirtyCounter() uint64 {
	return uint64(r.tk.Now()) / uint64(time.Microsecond) * uint64(r.rate)
}
