package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// span is one recorded interval. Host spans time the harness's own
// phases on the wall clock; virtual spans time a client's calls into the
// TCP stack on the simulation clock, and the spans of one request share
// its request id.
type span struct {
	Name    string
	Virtual bool
	Lane    int // client index; 0 for host phases
	ID      int
	Parent  int // 0 = root
	Req     int // request id; 0 for host phases
	StartNs int64
	DurNs   int64
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one pointer test per call.
type recorder struct {
	origin time.Time
	spans  []span
	nextID int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) add(s span) int {
	r.nextID++
	s.ID = r.nextID
	r.spans = append(r.spans, s)
	return s.ID
}

// host runs fn as a named harness phase and returns how long it took.
func (r *recorder) host(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r != nil {
		r.add(span{Name: name, StartNs: int64(start.Sub(r.origin)), DurNs: int64(d)})
	}
	return d
}

// virtual records one client-side interval of request req and returns
// its span id, for children to name as their parent.
func (r *recorder) virtual(name string, lane, req, parent int, start, end sim.Time) int {
	if r == nil {
		return 0
	}
	return r.add(span{Name: name, Virtual: true, Lane: lane, Parent: parent, Req: req,
		StartNs: int64(start), DurNs: int64(end.Sub(start))})
}

// durations returns the length of every virtual span of the given name,
// in recording order.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Virtual && s.Name == name {
			out = append(out, time.Duration(s.DurNs))
		}
	}
	return out
}

// write renders the spans as a Chrome trace (open it at ui.perfetto.dev):
// process 1 is the host clock, process 2 the virtual clock with one
// thread per client.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		pid, cat := 1, "host"
		if s.Virtual {
			pid, cat = 2, "virtual"
		}
		name, err := json.Marshal(s.Name)
		if err != nil {
			_ = f.Close()
			return err
		}
		fmt.Fprintf(w, "\n"+`{"name":%s,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"req":%d}}`,
			name, cat, float64(s.StartNs)/1e3, float64(s.DurNs)/1e3, pid, s.Lane, s.ID, s.Parent, s.Req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
