// Command ftfuzz draws kill scenarios and checks each against the
// correctness ladder's oracle (ROADMAP item 1): the client sees the
// never-failed run's output, no replica diverges, the run ends replicated
// (at generation 1 or later if a kernel died) with every live kernel's
// cores idle and every live replica's state digest the active one's,
// nothing is traced for a kernel after its death, a failover's flight dump
// is well formed, an app whose mains return does not hang (a hang is a
// *core.HangError), no simulated process outlives Shutdown, and no code
// acts on behalf of a dead domain (sim.Simulation.Guard, armed here).
// Scenario i of seed S is drawn from (S, i) alone, so a failure reproduces
// from its two numbers:
//
//	go run ./cmd/ftfuzz -seed 1 -n 500            # scenarios 0..499
//	go run ./cmd/ftfuzz -seed 1 -n 100000 -budget 60s
//	go run ./cmd/ftfuzz -seed 1 -i 17             # scenario 17 alone
//
// A scenario draws the app and its pool size, the det-shard count, the
// replica-set size and commit quorum, strict or relaxed output commit,
// epoch checkpoints (restorable apps only), the client's ephemeral-port
// range, one kill of the primary or a backup as the n-th log, sync or acks
// transfer of the never-failed run lands — a core fail-stop, a bus error, a
// coherency loss or a memory error — and what follows it: nothing, a
// manual Rejoin in place of the delayed one, or the rolling replacement of
// a backup (Retire) once the set is whole again. Only a coherency loss
// under relaxed commit may lose output (§3.5), and no more of it than the
// log ring held in flight; every other scenario must reproduce the
// never-failed output exactly.
//
// The first failing scenario is shrunk greedily, one field at a time, to a
// minimal one that still fails; ftfuzz prints its one-line reproducer and
// writes it, with its flight dump, to -found (TestFoundScenariosPass replays
// every scenario there), prints the scenarios per second at the end, and
// exits 1 if any scenario failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// Scenario is one draw: a deployment shape, a kill and what follows it.
// Pick chooses the kill boundary among the never-failed run's transfers
// (see spec).
type Scenario struct {
	Seed                              int64
	Index                             int
	App                               string
	Workers, Shards, Replicas, Quorum int
	Strict, Epochs                    bool
	Ports                             int // client ephemeral ports; 0 is the stack's default range
	Target                            string
	Pick                              uint64
	Kind                              string // the kill's fault kind (chaos: core, mem, bus, coherency)
	Then                              string // after the kill: "", "rejoin" (manual) or "retire" (a backup)
}

// Draw returns scenario i of seed s.
func Draw(s int64, i int) Scenario {
	rng := rand.New(rand.NewPCG(uint64(s), uint64(i)))
	one := func(xs ...int) int { return xs[rng.IntN(len(xs))] }
	names := slices.Sorted(maps.Keys(oracle.Apps))
	sc := Scenario{Seed: s, Index: i, App: names[rng.IntN(len(names))], Workers: one(1, 2, 4),
		Shards: one(1, 4), Replicas: one(2, 3), Strict: rng.IntN(2) == 0, Ports: one(0, 2, 4),
		Target: []string{"primary", "backup"}[rng.IntN(2)], Pick: rng.Uint64()}
	sc.Quorum = 2 + rng.IntN(sc.Replicas-1)
	sc.Epochs = oracle.Apps[sc.App].Restorable && rng.IntN(2) == 0
	sc.Kind = []string{"core", "core", "core", "mem", "bus", "coherency"}[rng.IntN(6)]
	sc.Then = []string{"", "", "rejoin", "retire"}[rng.IntN(4)]
	return sc
}

// shape names the deployment without its kill: the key of its never-failed
// run.
func (sc Scenario) shape() string {
	commit := map[bool]string{true: "strict", false: "relaxed"}[sc.Strict]
	return fmt.Sprintf("%s workers=%d shards=%d replicas=%d quorum=%d %s epochs=%v ports=%d",
		sc.App, sc.Workers, sc.Shards, sc.Replicas, sc.Quorum, commit, sc.Epochs, sc.Ports)
}

func (sc Scenario) options() []core.Option {
	opts := []core.Option{core.WithReplicaSet(sc.Replicas), core.WithDetShards(sc.Shards), func(c *core.Config) {
		c.Quorum, c.Replication.StrictOutputCommit = sc.Quorum, sc.Strict
	}}
	if sc.Epochs {
		opts = append(opts, core.WithEpochCheckpoints(100*time.Millisecond, 0))
	}
	return opts
}

// spec is the scenario's chaos schedule: its target killed as the n-th
// transfer of a class the never-failed run has, Pick choosing both.
func (sc Scenario) spec(transfers map[string]int) string {
	var classes []string
	for _, c := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		if transfers[c] > 0 {
			classes = append(classes, c)
		}
	}
	class := classes[sc.Pick%uint64(len(classes))]
	n := 1 + sc.Pick/uint64(len(classes))%uint64(transfers[class])
	return strings.TrimSuffix(fmt.Sprintf("kill %s @%s#%d %s", sc.Target, class, n, sc.Kind), " ")
}

// Result is one checked scenario: the kill it ran, a digest of what the
// client saw, and the oracle's findings (nil: it passed).
type Result struct {
	Scenario Scenario
	Spec     string
	Digest   uint64
	Err      error
	Flight   *obs.FlightDump // the failover's, if there was one
}

// Reproducer is the one line that reruns the scenario, with what it drew.
func (r Result) Reproducer() string {
	return fmt.Sprintf("go run ./cmd/ftfuzz -seed %d -i %d  # %s, %q: %v",
		r.Scenario.Seed, r.Scenario.Index, r.Scenario.shape(), r.Spec, r.Err)
}

// clean is a never-failed run's output and transfer counts, run once.
type clean struct {
	once      sync.Once
	output    string
	transfers map[string]int
	err       error
}

// Fuzzer runs scenarios, sharing never-failed runs between scenarios of the
// same shape.
type Fuzzer struct {
	mu    sync.Mutex
	clean map[string]*clean
}

// NewFuzzer returns a fuzzer with no never-failed run yet.
func NewFuzzer() *Fuzzer { return &Fuzzer{clean: map[string]*clean{}} }

func (f *Fuzzer) cleanRun(sc Scenario) *clean {
	f.mu.Lock()
	c := f.clean[sc.shape()]
	if c == nil {
		c = &clean{}
		f.clean[sc.shape()] = c
	}
	f.mu.Unlock()
	c.once.Do(func() {
		var sys *core.System
		if sys, c.output, c.err = run(sc, ""); c.err == nil {
			c.transfers = oracle.Transfers(sys.Obs.Events())
			sys.Sim.Shutdown()
		}
	})
	return c
}

// Run checks one scenario against the oracle.
func (f *Fuzzer) Run(sc Scenario) Result {
	res := Result{Scenario: sc}
	c := f.cleanRun(sc)
	if c.err != nil {
		res.Err = fmt.Errorf("the never-failed run: %w", c.err)
		return res
	}
	res.Spec = sc.spec(c.transfers)
	sys, output, err := run(sc, res.Spec)
	h := fnv.New64a()
	h.Write([]byte(output))
	res.Digest = h.Sum64()
	if err != nil {
		res.Err = err
		return res
	}
	res.Flight = sys.Flight
	var errs []error
	// Only a coherency loss under relaxed commit may show the client less
	// (§3.5), and drop no more log messages than the ring holds in flight.
	lossy := sc.Kind == "coherency" && !sc.Strict && sys.Fabric.Stats().Dropped <= sys.Cfg.Replication.LogRingBytes/64
	if output != c.output && !lossy {
		errs = append(errs, fmt.Errorf("the client saw %q, the never-failed run's client %q", output, c.output))
	}
	errs = append(errs, oracle.KilledRun(sys, 1), oracle.DigestsAgree(sys))
	if sys.Flight != nil {
		errs = append(errs, oracle.FlightWellFormed(sys.Flight))
	}
	sys.Sim.Shutdown()
	if n := sys.Sim.Live(); n > 0 {
		errs = append(errs, fmt.Errorf("%d simulated processes outlived Shutdown", n))
	}
	res.Err = errors.Join(errs...)
	return res
}

// run runs one deployment of the scenario's shape under the chaos schedule
// spec (empty: never failed) and returns it with its client's output.
func run(sc Scenario, spec string) (sys *core.System, output string, err error) {
	defer func() {
		if v := recover(); v != nil {
			sys, output, err = nil, "", fmt.Errorf("panic: %v", v)
		}
	}()
	app := oracle.Apps[sc.App]
	if sys, err = oracle.Deploy(spec, sc.options()...); err != nil {
		return nil, "", err
	}
	out, err := app.Start(sys, sc.Workers, sc.Ports)
	if err == nil {
		if spec != "" {
			after(sc, sys)
		}
		err = app.Run(sys)
	}
	if err != nil {
		sys.Sim.Shutdown()
		return nil, "", err
	}
	return sys, out(), nil
}

// after arms what the scenario does once its kill is delivered, polling
// every 20 ms of virtual time as background work (it keeps no run going): a
// manual Rejoin as soon as the set is degraded — before the delayed one,
// which then finds the slot filled — or the retirement of a backup once the
// set is whole again.
func after(sc Scenario, sys *core.System) {
	if sc.Then == "" {
		return
	}
	var ev sim.Event
	ev.Init(sys.Sim.Root(), func() {
		if inj := sys.Injector(); inj != nil && inj.Kills > 0 {
			switch st := sys.State(); {
			case sc.Then == "rejoin" && st == core.StateDegraded:
				if sys.Rejoin() == nil {
					return
				}
			case sc.Then == "retire" && st == core.StateReplicated && len(sys.Backups()) > 0:
				if sys.Retire(sys.Backups()[0]) == nil {
					return
				}
			}
		}
		ev.Reset(20 * time.Millisecond)
	})
	ev.SetBackground(true)
	ev.Reset(20 * time.Millisecond)
}

// Shrink returns the failing r reduced greedily, one field at a time, to a
// scenario that still fails: each field is set to its simplest value — the
// plainest kill, nothing after it, default ports, no epochs, one worker and
// one shard, two replicas, strict commit — and kept so if the oracle still
// finds a fault.
func (f *Fuzzer) Shrink(r Result) Result {
	steps := []func(*Scenario){
		func(s *Scenario) { s.Kind = "core" },
		func(s *Scenario) { s.Then = "" },
		func(s *Scenario) { s.Ports = 0 },
		func(s *Scenario) { s.Epochs = false },
		func(s *Scenario) { s.Workers = 1 },
		func(s *Scenario) { s.Shards = 1 },
		func(s *Scenario) { s.Replicas, s.Quorum = 2, 2 },
		func(s *Scenario) { s.Strict = true },
	}
	for _, step := range steps {
		sc := r.Scenario
		if step(&sc); sc == r.Scenario {
			continue
		}
		if c := f.Run(sc); c.Err != nil {
			r = c
		}
	}
	return r
}

// Save writes the scenario of r as <dir>/seed<S>-<i>.json, the file
// TestFoundScenariosPass replays, and its flight dump, if it has one, beside
// it as .flight.txt.
func Save(dir string, r Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.Scenario, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("seed%d-%d", r.Scenario.Seed, r.Scenario.Index))
	if err := os.WriteFile(name+".json", append(b, '\n'), 0o644); err != nil || r.Flight == nil {
		return err
	}
	fl, err := os.Create(name + ".flight.txt")
	if err != nil {
		return err
	}
	r.Flight.WriteText(fl)
	return fl.Close()
}

// Campaign runs scenarios from..from+n-1 of seed on workers goroutines,
// dispatching no new one once budget (if positive) has passed, and returns
// the results in index order.
func (f *Fuzzer) Campaign(seed int64, from, n, workers int, budget time.Duration) []Result {
	start := time.Now()
	next := make(chan int)
	var mu sync.Mutex
	var results []Result
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := f.Run(Draw(seed, i))
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	for i := from; i < from+n && (budget <= 0 || time.Since(start) < budget); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	sort.Slice(results, func(a, b int) bool { return results[a].Scenario.Index < results[b].Scenario.Index })
	return results
}

func main() {
	seed := flag.Int64("seed", 1, "campaign seed S: scenario i is drawn from (S, i)")
	n := flag.Int("n", 100, "number of scenarios, 0..n-1")
	one := flag.Int("i", -1, "run scenario i alone (the reproducer)")
	budget := flag.Duration("budget", 0, "stop dispatching scenarios after this long (0: none)")
	found := flag.String("found", "cmd/ftfuzz/testdata/fuzz", "directory the shrunk first failure and its flight dump are written to")
	flag.Parse()
	sim.ArmGuards()
	from, count := 0, *n
	if *one >= 0 {
		from, count = *one, 1
	}
	start := time.Now()
	results := NewFuzzer().Campaign(*seed, from, count, runtime.GOMAXPROCS(0), *budget)
	elapsed := time.Since(start)
	failed := 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if failed++; failed == 1 {
			fmt.Println(strings.ReplaceAll(r.Reproducer(), "\n", "; "))
			shrunk := NewFuzzer().Shrink(r)
			fmt.Println("shrunk:", strings.ReplaceAll(shrunk.Reproducer(), "\n", "; "))
			if err := Save(*found, shrunk); err != nil {
				fmt.Fprintln(os.Stderr, "ftfuzz:", err)
			}
		}
	}
	rate := float64(len(results)) / elapsed.Seconds()
	fmt.Printf("%d scenarios, %d failed, in %v: %.1f scenarios/s (%.0f per minute)\n",
		len(results), failed, elapsed.Round(time.Millisecond), rate, 60*rate)
	if failed > 0 {
		os.Exit(1)
	}
}
