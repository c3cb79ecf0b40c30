// Command ftfuzz draws kill scenarios and checks each against the
// correctness ladder's oracle (ROADMAP item 1): the client sees the
// never-failed run's output, no replica diverges, the run ends replicated
// (at generation 1 or later if a kernel died) with every live kernel's
// cores idle and every live replica's state digest the active one's,
// nothing is traced for a kernel after its death, a failover's flight dump
// is well formed, an app whose mains return does not hang (a hang is a
// *core.HangError), no simulated process outlives Shutdown, and no code
// acts on behalf of a dead domain (sim.Simulation.Guard, armed here).
// Scenario i of seed S is drawn from (S, i) alone:
//
//	go run ./cmd/ftfuzz -seed 1 -n 500            # scenarios 0..499
//	go run ./cmd/ftfuzz -seed 1 -n 100000 -budget 60s
//	go run ./cmd/ftfuzz -seed 1 -i 17             # scenario 17 alone
//
// A draw is an oracle.Scenario — the app and its pool size, the det-shard
// count, the replica-set size and quorum, strict or relaxed commit, epochs
// (restorable apps only), the client's port range, and a tune event per
// backup that perturbs its kernel (ROADMAP item 11) — plus one kill of the
// primary or a backup (a core fail-stop, a bus error, a coherency loss or a
// memory error) as the n-th log, sync or acks transfer of its never-failed
// twin lands, and what follows: nothing, a manual Rejoin or a Retire. Only
// a coherency loss under relaxed commit may lose output (§3.5), and no more
// than the log ring held in flight.
//
// The first failure is shrunk greedily, one field at a time, and written to
// -found as a scenario with its kill resolved, beside the oracle's finding
// and the flight dump at the failure. ftfuzz prints the commands that take
// it from there — rerun: the TestFoundScenariosPass subtest that replays it
// from testdata/fuzz; explain: ftdiag explain on the saved files; trace:
// ftsim -scenario <file> -trace <file>.trace.json — then the scenarios per
// second, and exits 1 if any scenario failed.
package main

import (
	"cmp"
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
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// Drawn is a draw before its kill is resolved: the scenario, its Chaos the
// backups' tunes, and the kill's target, fault kind and Pick, which chooses
// its boundary among the never-failed run's transfers (Check).
type Drawn struct {
	oracle.Scenario
	Target, Kind string
	Pick         uint64
}

// apps are the apps ftfuzz draws from: every scenario app but download,
// whose output is a throughput series that no never-failed twin matches.
var apps = slices.DeleteFunc(slices.Sorted(maps.Keys(oracle.Apps)), func(n string) bool { return n == "download" })

// Draw returns scenario i of seed s; its backups' tunes come from s and its
// shape alone, so all draws of a shape share one never-failed twin (cleanRun).
func Draw(s int64, i int) Drawn {
	rng := rand.New(rand.NewPCG(uint64(s), uint64(i)))
	one := func(xs ...int) int { return xs[rng.IntN(len(xs))] }
	d := Drawn{Scenario: oracle.Scenario{Seed: s, Index: i, SimSeed: 1, App: apps[rng.IntN(len(apps))], Workers: one(1, 2, 4),
		Shards: one(1, 4), Replicas: one(2, 3), Strict: rng.IntN(2) == 0, Ports: one(0, 2, 4)},
		Target: []string{"primary", "backup"}[rng.IntN(2)], Pick: rng.Uint64()}
	d.Quorum = 2 + rng.IntN(d.Replicas-1)
	d.Epochs = oracle.Apps[d.App].Restorable && rng.IntN(2) == 0
	d.Kind = []string{"core", "core", "core", "mem", "bus", "coherency"}[rng.IntN(6)]
	d.Then = []string{"", "", "rejoin", "retire"}[rng.IntN(4)]
	h := fnv.New64a() // from here on, one and str draw from the shape's stream
	fmt.Fprint(h, twin(d.Scenario))
	rng = rand.New(rand.NewPCG(uint64(s), h.Sum64()))
	str := func(xs ...string) string { return xs[rng.IntN(len(xs))] }
	var tunes []string
	for k := 1; k < d.Replicas; k++ {
		tunes = append(tunes, fmt.Sprintf("tune backup%d preempt %s cs %s wake %s idle %s cores %d salt %d", k,
			str("0", "0.05", "0.3", "1"), str("1us", "2us", "5us"), str("1us", "3us", "8us"),
			str("0s..0s", "50us..15ms", "10us..1ms"), one(2, 4, 16), rng.Uint32()))
	}
	d.Chaos = strings.Join(tunes, "; ")
	return d
}

// twin is a scenario's never-failed twin: its shape, tunes and ring faults,
// without its kills, what follows them or its provenance.
func twin(sc oracle.Scenario) oracle.Scenario {
	sched, _ := chaos.Parse(sc.Chaos)
	sc.Seed, sc.Index, sc.Then, sc.Chaos = 0, 0, "", sched.WithoutKills()
	return sc
}

// kill is the draw's kill: its target killed as the n-th transfer of a
// class the never-failed run has, Pick choosing both.
func (d Drawn) kill(transfers map[string]int) string {
	var classes []string
	for _, c := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		if transfers[c] > 0 {
			classes = append(classes, c)
		}
	}
	class := classes[d.Pick%uint64(len(classes))]
	n := 1 + d.Pick/uint64(len(classes))%uint64(transfers[class])
	return fmt.Sprintf("kill %s @%s#%d %s", d.Target, class, n, d.Kind)
}

// Result is one checked scenario: the draw, the scenario it resolved to, a
// digest of what the client saw, and the oracle's findings (nil: it passed).
type Result struct {
	Draw     Drawn
	Scenario oracle.Scenario
	Digest   uint64
	Err      error
	Flight   *obs.FlightDump // the failover's, else one taken at a failure
}

// Reproducer is the one line that reruns the drawn scenario, with what it
// drew.
func (r Result) Reproducer() string {
	return fmt.Sprintf("go run ./cmd/ftfuzz -seed %d -i %d  # %s", r.Draw.Seed, r.Draw.Index, r.summary())
}

func (r Result) summary() string {
	sc := r.Scenario
	commit := map[bool]string{true: "strict", false: "relaxed"}[sc.Strict]
	return fmt.Sprintf("%s workers=%d shards=%d replicas=%d quorum=%d %s epochs=%v ports=%d then=%q, %q: %v",
		sc.App, sc.Workers, sc.Shards, sc.Replicas, sc.Quorum, commit, sc.Epochs, sc.Ports, sc.Then, sc.Chaos, r.Err)
}

// Replay is how to go on from a shrunk failure Save wrote to dir: the
// subtest that reruns it once the file is in testdata/fuzz, the ftdiag
// explain that diagnoses it from the saved files, and the ftsim run that
// traces it for Perfetto.
func Replay(dir string, r Result) string {
	name := file(r.Scenario)
	file := filepath.Join(dir, name+".json")
	return fmt.Sprintf("rerun:   go test ./cmd/ftfuzz -run 'TestFoundScenariosPass/%s$'\nexplain: go run ./cmd/ftdiag explain %s\ntrace:   go run ./cmd/ftsim -scenario %s -trace %s",
		name, file, file, filepath.Join(dir, name+".trace.json"))
}

// clean is a never-failed run: its output and transfer counts, or the
// error that ended it with the flight dump at the error.
type clean struct {
	once      sync.Once
	output    string
	transfers map[string]int
	err       error
	flight    *obs.FlightDump
}

// twins are the never-failed runs made so far, by twin scenario: draws of
// one shape share one, as do Shrink's steps that keep the twin.
var twins sync.Map

func cleanRun(sc oracle.Scenario) *clean {
	v, _ := twins.LoadOrStore(twin(sc), new(clean))
	c := v.(*clean)
	c.once.Do(func() {
		var sys *core.System
		if sys, c.output, c.flight, c.err = run(twin(sc)); c.err != nil {
			c.err = fmt.Errorf("the never-failed run: %w", c.err)
			return
		}
		c.transfers = oracle.Transfers(sys.Obs.Events())
		sys.Sim.Shutdown()
	})
	return c
}

// Check resolves the draw's kill against its never-failed twin and checks
// the scenario it resolves to.
func Check(d Drawn) Result {
	sc := d.Scenario
	if c := cleanRun(sc); c.err == nil {
		sc.Chaos = strings.TrimPrefix(sc.Chaos+"; "+d.kill(c.transfers), "; ")
	}
	r := Run(sc)
	r.Draw = d
	return r
}

// Run checks a scenario whose kills are resolved against the oracle.
func Run(sc oracle.Scenario) Result {
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
	res.Flight = sys.Flight
	kills := sys.Cfg.Chaos.Kills
	var errs []error
	// Only a coherency loss under relaxed commit may show the client less
	// (§3.5), and drop no more log messages than the ring holds in flight.
	coherency := slices.ContainsFunc(kills, func(k chaos.Kill) bool { return k.Fault == hw.CoherencyLoss })
	lossy := coherency && !sc.Strict && sys.Fabric.Stats().Dropped <= sys.Cfg.Replication.LogRingBytes/64
	if output != c.output && !lossy {
		errs = append(errs, fmt.Errorf("the client saw %q, the never-failed run's client %q", output, c.output))
	}
	errs = append(errs, oracle.KilledRun(sys, len(kills)), oracle.DigestsAgree(sys))
	if sys.Flight != nil {
		errs = append(errs, oracle.FlightWellFormed(sys.Flight))
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

// run runs the scenario and returns its deployment with its client's
// output, or the error that ended it with the flight dump at the error:
// the failover's, or one taken then.
func run(sc oracle.Scenario) (sys *core.System, output string, flight *obs.FlightDump, err error) {
	defer func() {
		if v := recover(); v != nil {
			if sys != nil {
				flight = cmp.Or(sys.Flight, sys.Obs.FlightDump())
			}
			sys, output, err = nil, "", fmt.Errorf("panic: %v", v)
		}
	}()
	sys, runs, err := oracle.Deploy(sc)
	if err != nil {
		return nil, "", nil, err
	}
	if output, err = runs(); err != nil {
		flight = cmp.Or(sys.Flight, sys.Obs.FlightDump())
		sys.Sim.Shutdown()
		return nil, "", flight, err
	}
	return sys, output, nil, nil
}

// Shrink returns the failing r reduced greedily, one field at a time, to a
// scenario that still fails: each field is set to its simplest value — the
// plainest kill, nothing after it, no tunes, default ports, no epochs, one
// worker and one shard, two replicas, strict commit — and kept so if the
// oracle still finds a fault.
func Shrink(r Result) Result {
	steps := []func(*Drawn){
		func(d *Drawn) { d.Kind = "core" },
		func(d *Drawn) { d.Then = "" },
		func(d *Drawn) { d.Chaos = "" },
		func(d *Drawn) { d.Ports = 0 },
		func(d *Drawn) { d.Epochs = false },
		func(d *Drawn) { d.Workers = 1 },
		func(d *Drawn) { d.Shards = 1 },
		func(d *Drawn) { d.Replicas, d.Quorum = 2, 2 },
		func(d *Drawn) { d.Strict = true },
	}
	for _, step := range steps {
		d := r.Draw
		if step(&d); d == r.Draw {
			continue
		}
		if c := Check(d); c.Err != nil {
			r = c
		}
	}
	return r
}

// Save writes the scenario of r as <dir>/seed<S>-<i>.json, the file
// TestFoundScenariosPass replays, and beside it the oracle's finding as
// .finding.txt and the flight dump, if it has one, as .flight.jsonl: the
// files ftdiag explain reads.
func Save(dir string, r Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, file(r.Scenario))
	if err := os.WriteFile(name+".json", r.Scenario.JSON(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(name+".finding.txt", []byte(finding(r.Err)), 0o644); err != nil || r.Flight == nil {
		return err
	}
	fl, err := os.Create(name + ".flight.jsonl")
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(fl, r.Flight.Events); err != nil {
		fl.Close()
		return err
	}
	return fl.Close()
}

// file is the name Save gives a found scenario's files, less the extension:
// its provenance.
func file(sc oracle.Scenario) string { return fmt.Sprintf("seed%d-%d", sc.Seed, sc.Index) }

// finding renders the oracle's verdict one violated invariant a line, in
// the order it checked them; a hang's line is followed by one indented line
// per stuck process, naming what it waits on.
func finding(err error) string {
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	var b strings.Builder
	for _, e := range errs {
		var hang *core.HangError
		if !errors.As(e, &hang) {
			fmt.Fprintln(&b, strings.ReplaceAll(e.Error(), "\n", "; "))
			continue
		}
		fmt.Fprintf(&b, "hang at %v: an app main has not returned\n", hang.At)
		for _, s := range hang.Stuck {
			fmt.Fprintf(&b, "\tstuck %s\n", s)
		}
	}
	return b.String()
}

// Tally is what a campaign keeps: how many scenarios ran and failed, and
// the failure of lowest index with its flight dump (nil when none failed).
// Every other result is dropped as it comes in, so a campaign that fails
// every scenario holds one Result, not one per scenario.
type Tally struct {
	Ran, Failed int
	First       *Result
}

// Campaign runs scenarios from..from+n-1 of seed on workers goroutines,
// dispatching no new one once budget (if positive) has passed, and tallies
// them.
func Campaign(seed int64, from, n, workers int, budget time.Duration) Tally {
	start := time.Now()
	next := make(chan int)
	var mu sync.Mutex
	var tally Tally
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := Check(Draw(seed, i))
				mu.Lock()
				if tally.Ran++; r.Err != nil {
					if tally.Failed++; tally.First == nil || i < tally.First.Draw.Index {
						tally.First = &r
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := from; i < from+n && (budget <= 0 || time.Since(start) < budget); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return tally
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
	tally := Campaign(*seed, from, count, runtime.GOMAXPROCS(0), *budget)
	elapsed := time.Since(start)
	if r := tally.First; r != nil {
		fmt.Println(strings.ReplaceAll(r.Reproducer(), "\n", "; "))
		shrunk := Shrink(*r)
		fmt.Println("shrunk:", strings.ReplaceAll(shrunk.summary(), "\n", "; "))
		if err := Save(*found, shrunk); err != nil {
			fmt.Fprintln(os.Stderr, "ftfuzz:", err)
		} else {
			fmt.Println(Replay(*found, shrunk))
		}
	}
	rate := float64(tally.Ran) / elapsed.Seconds()
	fmt.Printf("%d scenarios, %d failed, in %v: %.1f scenarios/s (%.0f per minute)\n",
		tally.Ran, tally.Failed, elapsed.Round(time.Millisecond), rate, 60*rate)
	if tally.Failed > 0 {
		os.Exit(1)
	}
}
