package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// GoldenWindow is the width of one window of a golden trace's digest.
const GoldenWindow = 100 * time.Millisecond

// Window is one process row's events in one window of virtual time: how
// many, and the SHA-256 of their lines in the Chrome trace, in order. First
// is the window's first event line; it is not part of a digest file.
type Window struct {
	Start  time.Duration
	Row    string
	Events int
	Sum    string
	First  string
}

func (w Window) String() string {
	return fmt.Sprintf("%v %s %d %s", w.Start, w.Row, w.Events, w.Sum)
}

// TraceWindows digests a trace written by WriteChromeTrace per process row
// per GoldenWindow of virtual time, ordered by window, then by row as the
// trace declares them. Two traces agree byte for byte iff their digests
// agree; where they do not, the first differing window says where the run
// moved.
func TraceWindows(r io.Reader) ([]Window, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	rows := map[int]string{}
	type key struct {
		window int64
		pid    int
	}
	type acc struct {
		Window
		h hash.Hash
	}
	accs := map[key]*acc{}
	var keys []key
	for sc.Scan() {
		line := strings.TrimSuffix(strings.TrimPrefix(sc.Text(), `{"traceEvents":[`), ",")
		line = strings.TrimSuffix(line, "]}")
		if line == "" {
			continue
		}
		var e struct {
			Ph   string
			Pid  int
			Ts   json.Number
			Args struct{ Name string }
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %q: %w", line, err)
		}
		if e.Ph == "M" {
			rows[e.Pid] = e.Args.Name
			continue
		}
		ns, err := traceNS(string(e.Ts))
		if err != nil {
			return nil, fmt.Errorf("obs: trace line %q: %w", line, err)
		}
		k := key{ns / int64(GoldenWindow), e.Pid}
		if ns < 0 && ns%int64(GoldenWindow) != 0 {
			k.window--
		}
		a := accs[k]
		if a == nil {
			a = &acc{Window{Start: time.Duration(k.window) * GoldenWindow, First: line}, sha256.New()}
			accs[k] = a
			keys = append(keys, k)
		}
		a.Events++
		fmt.Fprintln(a.h, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.window < b.window || a.window == b.window && a.pid < b.pid
	})
	out := make([]Window, 0, len(keys))
	for _, k := range keys {
		a := accs[k]
		a.Row, a.Sum = rows[k.pid], hex.EncodeToString(a.h.Sum(nil)[:8])
		out = append(out, a.Window)
	}
	return out, nil
}

// traceNS parses a ChromeTS timestamp back to nanoseconds.
func traceNS(ts string) (int64, error) {
	neg := strings.HasPrefix(ts, "-")
	us, frac, _ := strings.Cut(strings.TrimPrefix(ts, "-"), ".")
	n, err := strconv.ParseInt(us+(frac + "000")[:3], 10, 64)
	if neg {
		n = -n
	}
	return n, err
}

// FirstMismatch compares the digests pinned in a file — one Window.String
// line per window — with a run's, and names the first window, in trace order, that differs,
// with that window's first event in the run; "" when they all agree.
func FirstMismatch(pinned []byte, got []Window) string {
	want := strings.Split(strings.TrimSuffix(string(pinned), "\n"), "\n")
	for i := 0; i < max(len(want), len(got)); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("the run ends before pinned window %q", want[i])
		case i >= len(want):
			return fmt.Sprintf("window %q is not pinned; its first event: %s", got[i], got[i].First)
		case want[i] != got[i].String():
			return fmt.Sprintf("first differing window: pinned %q, run %q; its first event in the run: %s",
				want[i], got[i], got[i].First)
		}
	}
	return ""
}
