package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace renders the retained event stream in the Chrome
// trace-event JSON format, loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Each scope becomes one process row (pid = creation
// index), deterministic sections become B/E duration pairs on the
// emitting thread's lane, ring-depth samples become counter tracks, and
// everything else becomes an instant event carrying seq/arg/note args.
//
// The output is written with fixed formatting (no maps, no floats
// beyond exact microsecond fractions), so two runs with the same seed
// produce byte-identical files.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(bw, ",\n")
		}
		first = false
	}
	pids := map[string]int{}
	if t != nil {
		for i, sc := range t.scopes {
			pids[sc.name] = i
			sep()
			fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, i, sc.name)
		}
		for _, e := range t.events {
			sep()
			writeChromeEvent(bw, pids[e.Scope], e)
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// ChromeTS renders a virtual-time instant as Chrome-trace microseconds
// with exact nanosecond fraction. A negative instant — the causal layer's
// backward-stacked critical-path tracks can start before t=0 — renders
// with an explicit sign.
func ChromeTS(ns int64) string {
	sign := ""
	if ns < 0 {
		sign = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}

func writeChromeEvent(w io.Writer, pid int, e Event) {
	ts := ChromeTS(int64(e.At))
	switch e.Kind {
	case DetEnter:
		fmt.Fprintf(w, `{"name":"det","ph":"B","pid":%d,"tid":%d,"ts":%s,"args":{"seq":%d`, pid, e.TID, ts, e.Seq)
		writeChromeDetArgs(w, e)
		fmt.Fprint(w, "}}")
	case DetExit:
		fmt.Fprintf(w, `{"name":"det","ph":"E","pid":%d,"tid":%d,"ts":%s}`, pid, e.TID, ts)
	case RingDepth:
		fmt.Fprintf(w, `{"name":"occupancy","ph":"C","pid":%d,"tid":0,"ts":%s,"args":{"bytes":%d}}`, pid, ts, e.Arg)
	default:
		fmt.Fprintf(w, `{"name":%q,"ph":"i","s":"p","pid":%d,"tid":%d,"ts":%s,"args":{"seq":%d,"arg":%d`,
			e.Kind.String(), pid, e.TID, ts, e.Seq, e.Arg)
		writeChromeDetArgs(w, e)
		if e.Note != "" {
			fmt.Fprintf(w, ",\"note\":%q", e.Note)
		}
		fmt.Fprint(w, "}}")
	}
}

// writeChromeDetArgs appends the per-object sequencing identity when the
// event carries one, keeping events without it byte-compatible.
func writeChromeDetArgs(w io.Writer, e Event) {
	if e.Obj != 0 || e.OSeq != 0 {
		fmt.Fprintf(w, `,"obj":%d,"oseq":%d`, e.Obj, e.OSeq)
	}
}

// WriteJSONL writes events one JSON object per line, as ReadJSONL reads
// them — the machine-diffable form of a retained stream (Tracer.Events)
// or of a flight dump's events.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses an event stream written by WriteJSONL. It is the
// ingestion side of ftdiag: a trace dumped by one process can be
// re-loaded, graphed, and diffed by another. Blank lines are skipped;
// a malformed line aborts with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
	}
	return events, nil
}
