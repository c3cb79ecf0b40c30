// Package oracle is the correctness ladder's oracle (ROADMAP item 1): what a
// deployment killed anywhere must show against its never-failed twin, and
// the small workloads the kill sweeps and cmd/ftfuzz run it over. A run is a
// pure function of its options, so a failure found here reproduces from
// them alone.
package oracle

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// KilledRun checks a finished run that chaos killed kills times: every kill
// was delivered, the run ends replicated at generation 1 or later, no replica
// diverged, every live kernel's cores are idle once it is quiet, and nothing
// is traced for a kernel after its death. The client's output is the
// caller's to compare. It returns every finding, joined, or nil.
func KilledRun(sys *core.System, kills int) error {
	var errs []error
	if n := injected(sys); n != int64(kills) {
		errs = append(errs, fmt.Errorf("%d kills delivered, want %d", n, kills))
	}
	if g, st := sys.Generation(), sys.State(); g < 1 || st != core.StateReplicated {
		errs = append(errs, fmt.Errorf("generation %d in state %v at the end, want >= 1 and replicated", g, st))
	}
	for _, rep := range append([]*core.Replica{sys.Active()}, sys.Backups()...) {
		if d := rep.NS.Stats().Divergences; d != 0 {
			errs = append(errs, fmt.Errorf("%d divergences on %s", d, rep.Kernel.Name()))
		}
		if k := rep.Kernel; k.Alive() && k.IdleCores() != k.Cores() {
			errs = append(errs, fmt.Errorf("%s has %d of %d cores idle once quiet", k.Name(), k.IdleCores(), k.Cores()))
		}
	}
	return errors.Join(append(errs, SilentAfterDeath(sys.Obs.Events()))...)
}

func injected(sys *core.System) int64 {
	if inj := sys.Injector(); inj != nil {
		return inj.Kills
	}
	return 0
}

// SilentAfterDeath returns the first trace event attributed to a kernel
// after its KernelPanic, as an error: one in the kernel's own scope or in its
// namespace's, which share the kernel's slot prefix (primary/kernel and
// primary/ftns).
func SilentAfterDeath(events []obs.Event) error {
	dead := map[string]bool{}
	for _, e := range events {
		slot, part, _ := strings.Cut(e.Scope, "/")
		if part != "kernel" && part != "ftns" {
			continue
		}
		if dead[slot] {
			return fmt.Errorf("%v traced in %s at %v, after the kernel died", e.Kind, e.Scope, e.At)
		}
		dead[slot] = e.Kind == obs.KernelPanic
	}
	return nil
}

// Transfers counts a traced run's ring transfers by chaos class: the
// boundaries a `kill <target> @<class>#n` can name.
func Transfers(events []obs.Event) map[string]int {
	n := map[string]int{}
	for _, e := range events {
		if e.Kind == obs.RingDeliver {
			n[chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/"))]++
		}
	}
	return n
}

// QuietParams are kernel parameters without idle wake-ups, so a run goes
// quiet once its work is done.
func QuietParams() kernel.Params {
	p := kernel.DefaultParams()
	p.IdleWakeMin, p.IdleWakeMax = 0, 0
	return p
}

// Deploy builds a deployment for one sweep or fuzz run: seed 1, quiet
// kernels, a 1 s NIC driver reload, a 3 s rejoin delay and tracing on, then
// opts, then the chaos schedule spec (none when empty).
func Deploy(spec string, opts ...core.Option) (*core.System, error) {
	opts = append([]core.Option{core.WithSeed(1), core.WithKernelParams(QuietParams()),
		func(c *core.Config) { c.NICDriverLoadTime = time.Second },
		core.WithRejoinDelay(3 * time.Second), core.WithTrace()}, opts...)
	if spec != "" {
		sched, err := chaos.Parse(spec)
		if err != nil {
			return nil, err
		}
		opts = append(opts, func(c *core.Config) { c.Chaos, c.ChaosSeed = sched, 42 })
	}
	return core.New(opts...)
}
