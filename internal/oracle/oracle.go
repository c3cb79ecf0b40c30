// Package oracle is the correctness ladder's oracle (ROADMAP item 1): what a
// deployment killed anywhere must show against its never-failed twin; the
// Scenario, one run's whole description, which Deploy turns into a deployment
// for cmd/ftsim, cmd/ftfuzz and the kill sweeps; and the apps it runs. A run
// is a pure function of its scenario, so a failure reproduces from it alone.
package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rejoin"
)

// KilledRun checks a finished run that chaos killed kills times: every kill
// was delivered, the run ends replicated — at generation 1 or later if a
// kernel died (a memory error outside the kernel's pages kills nothing) —
// no replica diverged, every live kernel's cores are idle once it is quiet,
// and nothing is traced for a kernel after its death. The client's output
// is the caller's to compare. It returns every finding, joined, or nil.
func KilledRun(sys *core.System, kills int) error {
	var errs []error
	if n := injected(sys); n != int64(kills) {
		errs = append(errs, fmt.Errorf("%d kills delivered, want %d", n, kills))
	}
	died := slices.ContainsFunc(sys.Obs.Events(), func(e obs.Event) bool { return e.Kind == obs.KernelPanic })
	if g, st := sys.Generation(), sys.State(); died && g < 1 || st != core.StateReplicated {
		errs = append(errs, fmt.Errorf("generation %d in state %v at the end, want replicated, at >= 1 after a death", g, st))
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

// DigestsAgree checks that every live replica of a quiet run holds the
// namespace state of the active one: the digest an epoch checkpoint of it
// would carry (rejoin.Cut), which every backup verifies a cut against.
func DigestsAgree(sys *core.System) error {
	want := rejoin.Cut(sys.Active().NS)
	want.Seal()
	for _, rep := range sys.Backups() {
		if !rep.Kernel.Alive() {
			continue
		}
		got := rejoin.Cut(rep.NS)
		if got.Seal(); got.Sum != want.Sum {
			return fmt.Errorf("%s's state digest %x, the active %s's %x", rep.Kernel.Name(), got.Sum, sys.Active().Kernel.Name(), want.Sum)
		}
	}
	return nil
}

// FlightWellFormed checks a failover's flight dump: events in strictly
// rising emission order, their times never falling nor past the dump's,
// every kind a named one, and the metrics sampled.
func FlightWellFormed(d *obs.FlightDump) error {
	if len(d.Events) == 0 || len(d.Metrics.Counters)+len(d.Metrics.Gauges) == 0 {
		return fmt.Errorf("flight dump at %v: %d events, no metrics", d.At, len(d.Events))
	}
	for i, e := range d.Events {
		if i > 0 && (e.Order <= d.Events[i-1].Order || e.At < d.Events[i-1].At) || e.At > d.At ||
			e.Kind.String() == "unknown" {
			return fmt.Errorf("flight dump at %v: event %d (%v at %v, order %d) is out of place", d.At, i, e.Kind, e.At, e.Order)
		}
	}
	return nil
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
