// Command ftfuzz draws kill scenarios and checks each against the
// correctness ladder's oracle (ROADMAP item 1), oracle.Check, with
// sim.Simulation.Guard armed: no code may act on behalf of a dead domain.
// Scenario i of seed S is drawn from (S, i) alone:
//
//	go run ./cmd/ftfuzz -seed 1 -n 500            # scenarios 0..499
//	go run ./cmd/ftfuzz -seed 1 -n 100000 -budget 60s
//	go run ./cmd/ftfuzz -seed 1 -i 17             # scenario 17 alone
//
// A draw is an oracle.Scenario — the app and its pool size, the det-shard
// count, the replica-set size and quorum, strict or relaxed commit, epochs
// (restorable apps only) and the client's port range, run at simulation
// seed S, which keys every kernel's random stream — at most one ring fault
// from the matrix chaos.Parse accepts, which the never-failed twin keeps,
// plus one kill of the primary or a backup (a core fail-stop, a coherency
// loss or a hang, which only missed heart-beats and the peer's IPI halt
// end) as the n-th log, sync or acks transfer of its twin lands, and what
// follows: nothing, a manual Rejoin or a Retire.
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
	"errors"
	"flag"
	"fmt"
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
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// Drawn is a draw before its kill is resolved: the scenario, and the kill's
// target, fault kind and Pick, which chooses its boundary among the
// never-failed run's transfers (Check).
type Drawn struct {
	oracle.Scenario
	Target, Kind string
	Pick         uint64
}

// apps are the apps ftfuzz draws from: every scenario app but download,
// whose output is a throughput series that no never-failed twin matches.
var apps = slices.DeleteFunc(slices.Sorted(maps.Keys(oracle.Apps)), func(n string) bool { return n == "download" })

// Draw returns scenario i of seed s, run at simulation seed s: all draws of
// a shape share one never-failed twin (oracle.Twin).
func Draw(s int64, i int) Drawn {
	rng := rand.New(rand.NewPCG(uint64(s), uint64(i)))
	one := func(xs ...int) int { return xs[rng.IntN(len(xs))] }
	d := Drawn{Scenario: oracle.Scenario{Seed: s, Index: i, SimSeed: s, App: apps[rng.IntN(len(apps))], Workers: one(1, 2, 4),
		Shards: one(1, 4), Replicas: one(2, 3), Strict: rng.IntN(2) == 0, Ports: one(0, 2, 4)},
		Target: []string{"primary", "backup"}[rng.IntN(2)], Pick: rng.Uint64()}
	d.Quorum = 2 + rng.IntN(d.Replicas-1)
	d.Epochs = oracle.Apps[d.App].Restorable && rng.IntN(2) == 0
	d.Kind = []string{"core", "core", "coherency", "hang"}[rng.IntN(4)]
	d.Then = []string{"", "", "rejoin", "retire"}[rng.IntN(4)]
	d.Chaos = ringFault(rng)
	return d
}

// ringFault draws a scenario's ring fault, or none: a delay on acks,
// heart-beats or bulk transfers or a dup on acks or heart-beats for the
// whole run, or heart-beats lost from the start, half the time for longer
// than the detector's timeout, which halts a live replica. The kill lands
// while the set is whole (kill), so the halt and the kill never share a
// repair window. A delay on log or sync transfers is not drawn: it fails
// runs that no kill explains (ROADMAP item 17).
func ringFault(rng *rand.Rand) string {
	switch rng.IntN(8) {
	case 0:
		class := []string{chaos.ClassAcks, chaos.ClassHB, chaos.ClassBulk}[rng.IntN(3)]
		return fmt.Sprintf("delay %s %s 0s..10s", class, []string{"50us", "1ms"}[rng.IntN(2)])
	case 1:
		return fmt.Sprintf("dup %s x%d 0s..10s", []string{chaos.ClassAcks, chaos.ClassHB}[rng.IntN(2)], 1+rng.IntN(2))
	case 2, 3:
		return fmt.Sprintf("drop hb 0s..%s", []string{"30ms", "70ms"}[rng.IntN(2)])
	}
	return ""
}

// kill is the draw's kill: its target killed as the n-th transfer of a
// class the never-failed run has while its set is whole, Pick choosing
// both; "" when it has none, and a halt its ring fault caused is the run's
// one failure.
func (d Drawn) kill(transfers map[string][]int) string {
	var classes []string
	for _, c := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		if len(transfers[c]) > 0 {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return ""
	}
	class := classes[d.Pick%uint64(len(classes))]
	ns := transfers[class]
	return fmt.Sprintf("kill %s @%s#%d %s", d.Target, class, ns[d.Pick/uint64(len(classes))%uint64(len(ns))], d.Kind)
}

// Result is one checked scenario: the draw and what oracle.Check found of
// the scenario it resolved to.
type Result struct {
	Draw Drawn
	oracle.Result
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

// Check resolves the draw's kill against its never-failed twin and checks
// the scenario it resolves to.
func Check(d Drawn) Result {
	sc := d.Scenario
	if transfers, err := oracle.TwinTransfers(sc); err == nil {
		sc.Chaos = strings.Trim(sc.Chaos+"; "+d.kill(transfers), "; ")
	}
	return Result{d, oracle.Check(sc)}
}

// Shrink returns the failing r reduced greedily, one field at a time, to a
// scenario that still fails: each field is set to its simplest value — no
// ring fault, the plainest kill, nothing after it, default ports, no
// epochs, one worker and one shard, two replicas, strict commit — and kept
// so if the oracle still finds a fault.
func Shrink(r Result) Result {
	steps := []func(*Drawn){
		func(d *Drawn) { d.Chaos = "" },
		func(d *Drawn) { d.Kind = "core" },
		func(d *Drawn) { d.Then = "" },
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
