package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs/causal"
)

// cmdExplain diagnoses a failure ftfuzz saved, from its files alone: the
// scenario (<name>.json), the oracle's finding (<name>.finding.txt) and the
// flight dump at the failure (<name>.flight.jsonl). It prints the first
// violated invariant — for a hang, with each stuck process and what it
// waits on — then the minimal causal slice of the failure's anchor, the
// dump's last event: the one the failure was observed at.
func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := subcommand("explain", stderr)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() != 1 {
		return fail(stderr, fmt.Errorf("explain wants exactly one found scenario, got %d files", fs.NArg()))
	}
	base, ok := strings.CutSuffix(fs.Arg(0), ".json")
	if !ok {
		return fail(stderr, fmt.Errorf("%s: a found scenario's name ends in .json", fs.Arg(0)))
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	var scenario bytes.Buffer
	if err := json.Compact(&scenario, b); err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
	finding, err := os.ReadFile(base + ".finding.txt")
	if err != nil {
		return fail(stderr, err)
	}
	first := firstInvariant(string(finding))
	if first == "" {
		return fail(stderr, fmt.Errorf("%s.finding.txt names no violated invariant", base))
	}
	events, err := readTrace(base + ".flight.jsonl")
	if err != nil {
		return fail(stderr, err)
	}
	if len(events) == 0 {
		return fail(stderr, fmt.Errorf("%s.flight.jsonl holds no events", base))
	}
	anchor := len(events) - 1
	slice := causal.Build(events).Slice(anchor, 0)
	fmt.Fprintf(stdout, "scenario %s: %s\n", filepath.Base(base), scenario.Bytes())
	fmt.Fprintf(stdout, "first violated invariant: %s", first)
	fmt.Fprintf(stdout, "causal slice of the flight dump's last event, order=%d (%d events):\n", events[anchor].Order, len(slice))
	causal.WriteEvents(stdout, slice)
	return 0
}

// firstInvariant is the finding's first line, with the indented lines that
// follow it (a hang's stuck processes), newline-terminated; "" if it has
// none.
func firstInvariant(finding string) string {
	lines := strings.SplitAfter(strings.TrimRight(finding, "\n")+"\n", "\n")
	n := 1
	for n < len(lines) && strings.HasPrefix(lines[n], "\t") {
		n++
	}
	if first := strings.Join(lines[:n], ""); strings.TrimSpace(first) != "" {
		return first
	}
	return ""
}
