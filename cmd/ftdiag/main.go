// Command ftdiag diagnoses JSONL event traces written by ftsim -events
// (or any obs.WriteJSONL stream): critical-path attribution of committed
// outputs, cross-replica first-divergence diagnosis, and causal slicing.
//
//	ftdiag attribute trace.jsonl                 # per-stage stall table
//	ftdiag attribute -json trace.jsonl           # machine-readable form
//	ftdiag attribute -critpath cp.json trace.jsonl
//	ftdiag diff good.jsonl suspect.jsonl         # first divergent tuple
//	ftdiag slice -order 1234 trace.jsonl         # causal ancestry of one event
//
// Every analysis is a pure function of the trace bytes: same input, same
// output, byte for byte. diff exits 1 when a divergence is found (0 when
// the traces agree, 2 on usage or I/O errors), so CI can assert either
// outcome without parsing the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/causal"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "attribute":
		err = cmdAttribute(args[1:])
	case "diff":
		var diverged bool
		diverged, err = cmdDiff(args[1:])
		if err == nil && diverged {
			os.Exit(1)
		}
	case "slice":
		err = cmdSlice(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "ftdiag: unknown subcommand %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdiag:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  ftdiag attribute [-json] [-critpath out.json] trace.jsonl
  ftdiag diff [-json] [-max N] a.jsonl b.jsonl
  ftdiag slice -order N [-max N] trace.jsonl
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
func cmdAttribute(args []string) error {
	fs := flag.NewFlagSet("attribute", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the attribution as JSON instead of the text report")
	critpath := fs.String("critpath", "", "also write a Perfetto-compatible critical-path track to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("attribute wants exactly one trace file, got %d", fs.NArg())
	}
	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	a := causal.Attribute(causal.Build(events))
	if *critpath != "" {
		f, err := os.Create(*critpath)
		if err != nil {
			return err
		}
		if err := a.WriteCritPath(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	a.WriteText(os.Stdout)
	return nil
}

// cmdDiff aligns two traces on their recorded det tuple orders and
// reports the first divergence. Returns whether a divergence was found.
func cmdDiff(args []string) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the diagnosis as JSON instead of the text report")
	max := fs.Int("max", 0, "causal-slice size cap (0 = default)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff wants exactly two trace files, got %d", fs.NArg())
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		return false, err
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		return false, err
	}
	d := causal.DiffTraces(a, b, *max)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return false, err
		}
	} else {
		d.WriteReport(os.Stdout)
	}
	return d != nil, nil
}

// cmdSlice prints the causal ancestry of the event with the given global
// emission order: the event itself plus its nearest happens-before
// ancestors, in emission order.
func cmdSlice(args []string) error {
	fs := flag.NewFlagSet("slice", flag.ExitOnError)
	order := fs.Uint64("order", 0, "global emission order of the event to slice (the JSONL \"order\" field)")
	max := fs.Int("max", 0, "slice size cap (0 = default)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("slice wants exactly one trace file, got %d", fs.NArg())
	}
	if *order == 0 {
		return fmt.Errorf("slice needs -order N (a nonzero event order)")
	}
	events, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	root := -1
	for i := range events {
		if events[i].Order == *order {
			root = i
			break
		}
	}
	if root < 0 {
		return fmt.Errorf("no event with order=%d in %s (%d events)", *order, fs.Arg(0), len(events))
	}
	g := causal.Build(events)
	slice := g.Slice(root, *max)
	fmt.Printf("causal slice of event order=%d (%d events):\n", *order, len(slice))
	causal.WriteEvents(os.Stdout, slice)
	return nil
}
