// Command ftsim runs one scenario file (internal/oracle.Scenario: an app,
// its deployment's shape, the simulation seed and a chaos schedule) and
// prints the timeline and the client's view:
//
//	ftsim -scenario scenarios/failover.json -trace trace.json
//	ftsim -scenario scenarios/kill-rejoin-kill.json -flight flight-krk.txt
//	ftsim -scenario cmd/ftfuzz/testdata/fuzz/seed1-2.json -trace seed1-2.trace.json
//
// scenarios/ holds the download runs of the make targets and CI; a file
// ftfuzz saved opens as it is. The flags are outputs only: -trace writes a
// Chrome trace (open it at https://ui.perfetto.dev), -events the event
// stream as JSONL for ftdiag, -flight the failover flight-recorder dump,
// whose tail is printed when -flight is not given. Two runs of one file
// write byte-identical files.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
)

type options struct {
	scenario, trace, events, flight string
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", "", "the scenario file to run (JSON, internal/oracle.Scenario)")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	flag.StringVar(&o.events, "events", "", "write the raw event stream as JSONL to this file (ftdiag input)")
	flag.StringVar(&o.flight, "flight", "", "write the failover flight-recorder dump to this file")
	flag.Parse()
	if _, _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ftsim:", err)
		os.Exit(1)
	}
}

// run runs the scenario and returns the deployment, shut down, and what
// its client saw. A run that ends in error still reports and writes its
// files first.
func run(o options) (*core.System, string, error) {
	b, err := os.ReadFile(o.scenario)
	if err != nil {
		return nil, "", err
	}
	sc, err := oracle.ParseScenario(b)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", o.scenario, err)
	}
	var opts []core.Option
	if o.trace != "" || o.events != "" {
		opts = append(opts, core.WithTrace())
	}
	sys, runs, err := oracle.Deploy(sc, opts...)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", o.scenario, err)
	}
	defer sys.Sim.Shutdown()
	if !sys.Cfg.Chaos.Empty() {
		fmt.Printf("chaos schedule: %s\n", sys.Cfg.Chaos)
	}
	output, runErr := runs()
	fmt.Println(output)
	if sys.FailedAt != 0 {
		fmt.Printf("last failure declared at %v; failover complete at %v\n", sys.FailedAt, sys.LiveAt)
	}
	if inj := sys.Injector(); inj != nil {
		fmt.Printf("chaos: %d kills, %d transfer faults injected\n", len(inj.Victims), inj.Injected)
	}
	fmt.Printf("lifecycle: state=%v generation=%d", sys.State(), sys.Generation())
	if err := sys.RejoinErr(); err != nil {
		fmt.Printf(" rejoin-error=%q", err)
	}
	fmt.Println()
	st := sys.Fabric.Stats()
	if st.Dropped > 0 {
		fmt.Printf("faults dropped %d in-flight mailbox messages; stream still intact: %v\n", st.Dropped, runErr == nil)
	}
	fmt.Printf("inter-replica traffic: %d messages, %.1f MB (peak ring occupancy %d B)\n",
		st.Messages, float64(st.Bytes)/1e6, st.HighWaterBytes)
	var errs []error
	save := func(file, done string, fill func(io.Writer) error) {
		var b bytes.Buffer
		err := fill(&b)
		if err == nil {
			err = os.WriteFile(file, b.Bytes(), 0o644)
		}
		if errs = append(errs, err); err == nil {
			fmt.Print(done)
		}
	}
	if sys.Flight != nil && o.flight == "" {
		fmt.Println()
		sys.Flight.Tail(40).WriteText(os.Stdout)
	} else if sys.Flight != nil {
		save(o.flight, "wrote flight-recorder dump to "+o.flight+"\n", func(w io.Writer) error { sys.Flight.Tail(200).WriteText(w); return nil })
	}
	n := len(sys.Obs.Events())
	if o.trace != "" {
		save(o.trace, fmt.Sprintf("wrote %s (%d events); open it at https://ui.perfetto.dev\n", o.trace, n), sys.Obs.WriteChromeTrace)
	}
	if o.events != "" {
		save(o.events, fmt.Sprintf("wrote %s (%d events); diagnose it with ftdiag\n", o.events, n),
			func(w io.Writer) error { return obs.WriteJSONL(w, sys.Obs.Events()) })
	}
	if sys.State() == core.StateFailed {
		errs = append(errs, errors.New("deployment ended in the failed state"))
	}
	if err := sys.RejoinErr(); err != nil {
		errs = append(errs, fmt.Errorf("rejoin failed: %w", err))
	}
	return sys, output, errors.Join(append([]error{runErr}, errs...)...)
}
