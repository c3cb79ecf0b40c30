// Command ftdiag diagnoses JSONL event traces written by ftsim -events
// (or any obs.WriteJSONL stream): critical-path attribution of committed
// outputs, cross-replica first-divergence diagnosis, and causal slicing.
//
//	ftdiag attribute trace.jsonl                 # per-stage stall table
//	ftdiag attribute -json trace.jsonl           # machine-readable form
//	ftdiag attribute -critpath cp.json trace.jsonl
//	ftdiag diff good.jsonl suspect.jsonl         # first divergent tuple
//	ftdiag slice -order 1234 trace.jsonl         # causal ancestry of one event
//	ftdiag windows trace.json > pinned.txt       # a Chrome trace's per-window digests
//	ftdiag windows trace.json pinned.txt         # the first window that moved
//	ftdiag reach func.txt pkgs.txt reach.txt     # code no run reached, against its keepers
//	ftdiag explain found/seed1-17.json           # a saved ftfuzz failure, from its files
//	ftdiag pair HEAD~1                           # host cost against a revision (make pair)
//
// Every analysis is a pure function of the trace bytes: same input, same
// output, byte for byte. diff exits 1 when a divergence is found (0 when
// the traces agree, 2 on usage or I/O errors), so CI can assert either
// outcome without parsing the report; windows, given pinned digests, exits
// 1 when a window moved, and reach (make reach) when its list and the
// pinned one differ. explain reads the files ftfuzz saves beside a found
// scenario and exits 2 when one is missing or malformed. pair builds a
// harness at a revision and at the tree and runs them in alternating
// pairs; unlike the others it runs programs, and its numbers are the
// host's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/causal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is ftdiag with its arguments and output streams, returning the exit
// status the package comment promises.
func run(args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("ftdiag", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Usage = func() { usage(stderr) }
	if err := top.Parse(args); err != nil {
		return parseStatus(err)
	}
	args = top.Args()
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "attribute":
		return cmdAttribute(args[1:], stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	case "slice":
		return cmdSlice(args[1:], stdout, stderr)
	case "windows":
		return cmdWindows(args[1:], stdout, stderr)
	case "reach":
		return cmdReach(args[1:], stdout, stderr)
	case "explain":
		return cmdExplain(args[1:], stdout, stderr)
	case "pair":
		return cmdPair(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "ftdiag: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

// parseStatus is the exit status after a flag set reported err: 0 for
// -h, 2 for a bad flag.
func parseStatus(err error) int {
	if err == flag.ErrHelp {
		return 0
	}
	return 2
}

// fail reports err and returns the usage / I/O exit status.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ftdiag:", err)
	return 2
}

// subcommand is a subcommand's flag set, reporting to stderr.
func subcommand(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  ftdiag attribute [-json] [-critpath out.json] trace.jsonl
  ftdiag diff [-json] [-max N] a.jsonl b.jsonl
  ftdiag slice -order N [-max N] trace.jsonl
  ftdiag windows trace.json [pinned.txt]
  ftdiag reach func.txt pkgs.txt reach.txt
  ftdiag explain found.json
  ftdiag pair [-n N] rev [pkg [args...]]
`)
}

func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// cmdAttribute computes the critical-path attribution of every committed
// output and prints the fixed-format report (or JSON with -json); with
// -critpath it also writes the Perfetto-compatible critical-path track.
func cmdAttribute(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("attribute", stderr)
	asJSON := fs.Bool("json", false, "emit the attribution as JSON instead of the text report")
	critpath := fs.String("critpath", "", "also write a Perfetto-compatible critical-path track to this file")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() != 1 {
		return fail(stderr, fmt.Errorf("attribute wants exactly one trace file, got %d", fs.NArg()))
	}
	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	a := causal.Attribute(causal.Build(events))
	if *critpath != "" {
		if err := writeCritPath(a, *critpath); err != nil {
			return fail(stderr, err)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	a.WriteText(stdout)
	return 0
}

func writeCritPath(a *causal.Attribution, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteCritPath(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdDiff aligns two traces on their recorded det tuple orders and
// reports the first divergence: status 1 when there is one, 0 when the
// traces agree.
func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("diff", stderr)
	asJSON := fs.Bool("json", false, "emit the diagnosis as JSON instead of the text report")
	max := fs.Int("max", 0, "causal-slice size cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() != 2 {
		return fail(stderr, fmt.Errorf("diff wants exactly two trace files, got %d", fs.NArg()))
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	d := causal.DiffTraces(a, b, *max)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return fail(stderr, err)
		}
	} else {
		d.WriteReport(stdout)
	}
	if d != nil {
		return 1
	}
	return 0
}

// cmdSlice prints the causal ancestry of the event with the given global
// emission order: the event itself plus its nearest happens-before
// ancestors, in emission order.
func cmdSlice(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("slice", stderr)
	order := fs.Uint64("order", 0, "global emission order of the event to slice (the JSONL \"order\" field)")
	max := fs.Int("max", 0, "slice size cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() != 1 {
		return fail(stderr, fmt.Errorf("slice wants exactly one trace file, got %d", fs.NArg()))
	}
	if *order == 0 {
		return fail(stderr, fmt.Errorf("slice needs -order N (a nonzero event order)"))
	}
	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	root := -1
	for i := range events {
		if events[i].Order == *order {
			root = i
			break
		}
	}
	if root < 0 {
		return fail(stderr, fmt.Errorf("no event with order=%d in %s (%d events)", *order, fs.Arg(0), len(events)))
	}
	g := causal.Build(events)
	slice := g.Slice(root, *max)
	fmt.Fprintf(stdout, "causal slice of event order=%d (%d events):\n", *order, len(slice))
	causal.WriteEvents(stdout, slice)
	return 0
}

// cmdWindows digests a Chrome trace (ftsim -trace) per process row per
// obs.GoldenWindow of virtual time and prints the digests; given a file of
// pinned digests instead, it names the first window that differs from them
// and its first event, with status 1, or prints nothing, with status 0.
func cmdWindows(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("windows", stderr)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fail(stderr, fmt.Errorf("windows wants a trace file and optionally a pinned digest file, got %d files", fs.NArg()))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()
	got, err := obs.TraceWindows(f)
	if err != nil {
		return fail(stderr, err)
	}
	if fs.NArg() == 1 {
		for _, w := range got {
			fmt.Fprintln(stdout, w)
		}
		return 0
	}
	pinned, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	if d := obs.FirstMismatch(pinned, got); d != "" {
		fmt.Fprintf(stdout, "%s differs from %s: %s\n", fs.Arg(0), fs.Arg(1), d)
		return 1
	}
	return 0
}
