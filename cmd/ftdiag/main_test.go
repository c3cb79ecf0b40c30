package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// traceFiles writes the JSONL event streams ftdiag reads, the way `make
// diag` makes them but smaller: a 1 MiB restream download at seed 1, twice
// never failed and once with the primary's core failing at 5 ms,
// mid-download; and a 512 KiB download, whose recorded tuples stop short of
// the 1 MiB run's. Beside each it writes the run's Chrome trace, the input
// of ftdiag windows, under the name ending .json.
var traceFiles = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "ftdiag-test")
	if err != nil {
		return nil, err
	}
	files := make(map[string]string)
	for _, run := range []struct {
		name   string
		failAt time.Duration
		total  int
	}{{"clean", 0, 1 << 20}, {"clean2", 0, 1 << 20}, {"failed", 5 * time.Millisecond, 1 << 20}, {"short", 0, 512 << 10}} {
		path := filepath.Join(dir, run.name+".jsonl")
		if err := writeTrace(path, run.failAt, run.total); err != nil {
			return nil, err
		}
		files[run.name] = path
	}
	return files, nil
})

func writeTrace(path string, failAt time.Duration, total int) error {
	opts := []core.Option{core.WithSeed(1), core.WithTrace()}
	if failAt > 0 {
		opts = append(opts, func(c *core.Config) { c.Chaos = chaos.MustParse(fmt.Sprintf("kill primary @%v", failAt)) })
	}
	sys, err := core.New(opts...)
	if err != nil {
		return err
	}
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}
	scfg := restream.Config{Port: 80, Chunk: 64 << 10, Total: total}
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(scfg) }})
	var dl clients.DownloadStats
	clients.Download(client, scfg.Port, int64(scfg.Total), time.Second, &dl)
	if err := sys.Sim.Run(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, sys.Obs.Events()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if f, err = os.Create(strings.TrimSuffix(path, "l")); err != nil {
		return err
	}
	if err := sys.Obs.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func traces(t *testing.T) map[string]string {
	t.Helper()
	files, err := traceFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestMain(m *testing.M) {
	code := m.Run()
	if files, err := traceFiles(); err == nil {
		os.RemoveAll(filepath.Dir(files["clean"]))
	}
	os.Exit(code)
}

// ftdiag runs the command and returns its exit status, stdout and stderr.
func ftdiag(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDiffExitCodes: the exit statuses the package comment promises — 0
// when two traces agree, 1 when one diverges, 2 on a usage or I/O error.
func TestDiffExitCodes(t *testing.T) {
	tr := traces(t)
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		out    string // a substring of stdout, or of stderr when the status is 2
	}{
		{"same-seed traces agree", []string{"diff", tr["clean"], tr["clean2"]}, 0, ""},
		{"killed primary agrees", []string{"diff", tr["clean"], tr["failed"]}, 0, ""},
		{"shorter download diverges", []string{"diff", tr["clean"], tr["short"]}, 1, "first divergence at recorded tuple"},
		{"missing file", []string{"diff", tr["clean"], filepath.Join(t.TempDir(), "no-such.jsonl")}, 2, "no-such.jsonl"},
		{"bad flag", []string{"diff", "-no-such-flag", tr["clean"], tr["clean2"]}, 2, "flag provided but not defined"},
		{"one trace", []string{"diff", tr["clean"]}, 2, "exactly two trace files"},
		{"unknown subcommand", []string{"explode", tr["clean"]}, 2, "unknown subcommand"},
		{"no subcommand", nil, 2, "usage:"},
		{"help", []string{"-h"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := ftdiag(tc.args...)
			if status != tc.status {
				t.Fatalf("exit status %d, want %d\nstdout:\n%s\nstderr:\n%s", status, tc.status, stdout, stderr)
			}
			out := stdout
			if tc.status == 2 {
				out = stderr
			}
			if !strings.Contains(out, tc.out) {
				t.Errorf("output does not contain %q:\n%s", tc.out, out)
			}
		})
	}
}

// TestAttributeOutputRepeats: attribution is a pure function of the trace
// bytes — the same trace attributes byte-identically, and so does a
// same-seed trace of another run.
func TestAttributeOutputRepeats(t *testing.T) {
	tr := traces(t)
	var outs []string
	for _, path := range []string{tr["failed"], tr["failed"], tr["clean"], tr["clean2"]} {
		status, stdout, stderr := ftdiag("attribute", path)
		if status != 0 {
			t.Fatalf("attribute %s: exit status %d\n%s", path, status, stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] {
		t.Errorf("one trace attributed twice, two outputs:\n%s\n---\n%s", outs[0], outs[1])
	}
	if outs[2] != outs[3] {
		t.Errorf("same-seed traces attribute differently:\n%s\n---\n%s", outs[2], outs[3])
	}
	if !strings.Contains(outs[2], "commit-wait") {
		t.Errorf("attribution names no stage:\n%s", outs[2])
	}
}

// TestWindowsPinsATrace: ftdiag windows prints a Chrome trace's per-window
// digests; given them back as the pinned file, the same trace exits 0 and
// prints nothing, and the trace with the first event of one window moved
// by a nanosecond exits 1, naming that window and the moved event.
func TestWindowsPinsATrace(t *testing.T) {
	trace := strings.TrimSuffix(traces(t)["clean"], "l")
	status, pinned, stderr := ftdiag("windows", trace)
	if status != 0 || pinned == "" {
		t.Fatalf("windows %s: exit status %d, %d bytes\n%s", trace, status, len(pinned), stderr)
	}
	if _, again, _ := ftdiag("windows", trace); again != pinned {
		t.Error("one trace digested twice, two outputs")
	}
	pinnedFile := filepath.Join(t.TempDir(), "pinned.windows")
	if err := os.WriteFile(pinnedFile, []byte(pinned), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, stdout, stderr := ftdiag("windows", trace, pinnedFile); status != 0 || stdout != "" {
		t.Fatalf("same trace against its own digests: exit status %d\n%s%s", status, stdout, stderr)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := obs.TraceWindows(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	w := windows[len(windows)/2]
	ts := regexp.MustCompile(`"ts":(\d+)\.(\d{3})`).FindStringSubmatch(w.First)
	if ts == nil {
		t.Fatalf("no timestamp in %s", w.First)
	}
	ns, _ := strconv.Atoi(ts[1] + ts[2])
	moved := strings.Replace(w.First, ts[0], fmt.Sprintf(`"ts":%d.%03d`, (ns+1)/1000, (ns+1)%1000), 1)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	movedFile := filepath.Join(t.TempDir(), "moved.json")
	if err := os.WriteFile(movedFile, []byte(strings.Replace(string(data), w.First, moved, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	status, stdout, stderr := ftdiag("windows", movedFile, pinnedFile)
	if status != 1 {
		t.Fatalf("moved event: exit status %d, want 1\n%s%s", status, stdout, stderr)
	}
	if want := fmt.Sprintf("first differing window: pinned %q", w); !strings.Contains(stdout, want) || !strings.Contains(stdout, moved) {
		t.Errorf("moved event: output does not name window %q and its event %s:\n%s", w, moved, stdout)
	}
}

// TestSliceAndCritPath: slice prints the causal ancestry of one event, and
// attribute -critpath writes the critical-path track as a JSON trace.
func TestSliceAndCritPath(t *testing.T) {
	tr := traces(t)
	status, stdout, stderr := ftdiag("slice", "-order", "100", tr["failed"])
	if status != 0 || !strings.Contains(stdout, "causal slice of event order=100") {
		t.Errorf("slice: exit status %d\n%s%s", status, stdout, stderr)
	}
	if status, _, stderr := ftdiag("slice", "-order", "999999999", tr["failed"]); status != 2 || !strings.Contains(stderr, "no event with order=999999999") {
		t.Errorf("slice of a missing event: exit status %d\n%s", status, stderr)
	}
	cp := filepath.Join(t.TempDir(), "cp.json")
	if status, _, stderr := ftdiag("attribute", "-critpath", cp, tr["failed"]); status != 0 {
		t.Fatalf("attribute -critpath: exit status %d\n%s", status, stderr)
	}
	var track struct{ TraceEvents []json.RawMessage }
	if data, err := os.ReadFile(cp); err != nil || json.Unmarshal(data, &track) != nil || len(track.TraceEvents) == 0 {
		t.Errorf("critical-path track %s is not a JSON trace with events (read error %v)", cp, err)
	}
}
