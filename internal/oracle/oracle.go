// Package oracle is the correctness ladder's oracle (ROADMAP item 1): Check,
// what a deployment killed anywhere must show against its never-failed twin,
// which cmd/ftfuzz and the kill sweeps both call; the Scenario, one run's
// whole description, which Deploy turns into a deployment for cmd/ftsim and
// Check; and the apps it runs. A run is a pure function of its scenario, so
// a failure reproduces from it alone.
package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rejoin"
)

// Result is one checked scenario: a digest of what the client saw, the
// oracle's findings (nil: it passed), the flight dump — the failover's, else
// one taken at a failure — and the deployment, shut down, when the run
// finished.
type Result struct {
	Scenario Scenario
	Sys      *core.System
	Digest   uint64
	Err      error
	Flight   *obs.FlightDump
}

// Check runs the scenario, whose kills are resolved, and checks it against
// its never-failed twin: the client sees the twin's output — only a
// coherency loss under relaxed commit may show it less (§3.5), and drop no
// more log messages than the ring holds in flight — and KilledRun,
// DigestsAgree, CommitSafe, CommitLive and FlightWellFormed hold; no
// simulated process outlives Shutdown, and a panic, a hang (a
// *core.HangError) or a failed twin is a finding.
func Check(sc Scenario) Result {
	c := cleanRun(sc)
	res := Result{Scenario: sc, Err: c.err, Flight: c.flight}
	if c.err != nil {
		return res
	}
	sys, output, flight, err := run(sc)
	h := fnv.New64a()
	h.Write([]byte(output))
	res.Digest = h.Sum64()
	if err != nil {
		res.Err, res.Flight = err, flight
		return res
	}
	res.Sys, res.Flight = sys, sys.Flight
	kills := sys.Cfg.Chaos.Kills
	var errs []error
	coherency := slices.ContainsFunc(kills, func(k chaos.Kill) bool { return k.Kind == chaos.Coherency })
	lossy := coherency && !sc.Strict && sys.Fabric.Stats().Dropped <= sys.Cfg.Replication.LogRingBytes/64
	if output != c.output && !lossy {
		errs = append(errs, fmt.Errorf("the client saw %q, the never-failed run's client %q", output, c.output))
	}
	errs = append(errs, KilledRun(sys), DigestsAgree(sys), CommitSafe(sys), CommitLive(sys))
	if sys.Flight != nil {
		errs = append(errs, FlightWellFormed(sys.Flight))
	}
	sys.Sim.Shutdown()
	if n := sys.Sim.Live(); n > 0 {
		errs = append(errs, fmt.Errorf("%d simulated processes outlived Shutdown", n))
	}
	if res.Err = errors.Join(errs...); res.Err != nil && res.Flight == nil {
		res.Flight = sys.Obs.FlightDump()
	}
	return res
}

// Twin is a scenario's never-failed twin: its shape and ring faults,
// without its kills, what follows them or its provenance.
func Twin(sc Scenario) Scenario {
	sched, _ := chaos.Parse(sc.Chaos)
	sc.Seed, sc.Index, sc.Then, sc.Chaos = 0, 0, "", sched.WithoutKills()
	return sc
}

// TwinTransfers returns the never-failed twin's Transfers — the boundaries
// a kill can name — or the error that ended it.
func TwinTransfers(sc Scenario) (map[string][]int, error) {
	c := cleanRun(sc)
	return c.transfers, c.err
}

// clean is a never-failed run: its output and transfer counts, or the
// error that ended it with the flight dump at the error.
type clean struct {
	once      sync.Once
	output    string
	transfers map[string][]int
	err       error
	flight    *obs.FlightDump
}

// twins are the never-failed runs made so far, by twin scenario: every
// scenario of one shape shares one.
var twins sync.Map

func cleanRun(sc Scenario) *clean {
	v, _ := twins.LoadOrStore(Twin(sc), new(clean))
	c := v.(*clean)
	c.once.Do(func() {
		var sys *core.System
		if sys, c.output, c.flight, c.err = run(Twin(sc)); c.err != nil {
			c.err = fmt.Errorf("the never-failed run: %w", c.err)
			return
		}
		c.transfers = Transfers(sys.Obs.Events())
		sys.Sim.Shutdown()
	})
	return c
}

// run runs the scenario and returns its deployment with its client's
// output, or the error that ended it with the flight dump at the error:
// the failover's, or one taken then.
func run(sc Scenario) (sys *core.System, output string, flight *obs.FlightDump, err error) {
	defer func() {
		if v := recover(); v != nil {
			if sys != nil {
				flight = cmp.Or(sys.Flight, sys.Obs.FlightDump())
			}
			sys, output, err = nil, "", fmt.Errorf("panic: %v", v)
		}
	}()
	sys, runs, err := Deploy(sc)
	if err != nil {
		return nil, "", nil, err
	}
	if output, err = runs(); err != nil {
		err = errors.Join(err, lockCycles(sys))
		flight = cmp.Or(sys.Flight, sys.Obs.FlightDump())
		sys.Sim.Shutdown()
		return nil, "", flight, err
	}
	return sys, output, nil, nil
}

// KilledRun checks a finished run that chaos struck: every delivered kill's
// victim is dead at the end — a hang's halted by a peer's IPI — the run ends
// replicated, at generation 1 or later if a kernel died, no replica diverged
// nor recorded a lock-order cycle, every live kernel's cores are idle once
// it is quiet, and nothing is traced for a kernel after its death. The
// client's output is the caller's to compare. It returns every finding,
// joined, or nil.
func KilledRun(sys *core.System) error {
	var errs []error
	if inj := sys.Injector(); inj != nil {
		for _, k := range inj.Victims {
			if k.Alive() {
				errs = append(errs, fmt.Errorf("%s, a kill's victim, is alive at the end", k.Name()))
			}
		}
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
	return errors.Join(append(errs, lockCycles(sys), SilentAfterDeath(sys.Obs.Events()))...)
}

// lockCycles returns, as an error, the lock-order cycles each replica's
// apps recorded (pthread.LockOrderError): a hang they explain names them.
func lockCycles(sys *core.System) error {
	var errs []error
	for _, rep := range append([]*core.Replica{sys.Active()}, sys.Backups()...) {
		if n := rep.NS.Stats().LockCycles; n != 0 {
			errs = append(errs, fmt.Errorf("%d lock-order cycles on %s, the first: %w", n, rep.Kernel.Name(), rep.NS.Lib().LockCycles()[0]))
		}
	}
	return errors.Join(errs...)
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

// Transfers returns, by chaos class, the numbers n of a traced run's ring
// transfers that land while its replica set is whole: the boundaries at
// which a `kill <target> @<class>#n` is the one failure of its repair
// window. A run whose ring faults halt a replica (a stretch of lost
// heart-beats) is whole before the halt and again once a rejoin repairs it.
func Transfers(events []obs.Event) map[string][]int {
	n, at := map[string]int{}, map[string][]int{}
	whole := true
	for _, e := range events {
		switch e.Kind {
		case obs.StateChange:
			whole = core.LifecycleState(e.Seq) == core.StateReplicated
		case obs.RingDeliver:
			class := chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/"))
			if n[class]++; whole {
				at[class] = append(at[class], n[class])
			}
		}
	}
	return at
}
