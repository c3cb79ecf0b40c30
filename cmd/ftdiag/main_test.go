package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/simnet"
)

// traceFiles writes the JSONL event streams ftdiag reads, the way `make
// diag` makes them but smaller: a 1 MiB restream download at seed 1, twice
// never failed and once with the primary's core failing at 5 ms,
// mid-download; and a 512 KiB download, whose recorded tuples stop short of
// the 1 MiB run's.
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
	sys, err := core.New(core.WithSeed(1), core.WithTrace())
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
	if failAt > 0 {
		sys.InjectPrimaryFailure(failAt, hw.CoreFailStop)
	}
	if err := sys.Sim.Run(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.Obs.WriteJSONL(f); err != nil {
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
		{"unknown subcommand", []string{"explain", tr["clean"]}, 2, "unknown subcommand"},
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
