package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.5, 100}} {
		if got := nearestRank(s, tc.q); got != tc.want {
			t.Errorf("nearestRank(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// Always a sample, never an interpolation.
	if got := nearestRank([]time.Duration{10, 20, 30}, 50); got != 20 {
		t.Errorf("median of {10,20,30} = %d, want 20", got)
	}
	if got := nearestRank([]time.Duration{10, 20, 30, 40}, 50); got != 20 {
		t.Errorf("nearest-rank median of {10,20,30,40} = %d, want 20", got)
	}
	if got := nearestRank([]time.Duration(nil), 99); got != 0 {
		t.Errorf("empty sample = %d, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{0, 99, false},
		{999, 99, false}, // rank 990: nine beyond
		{1000, 99, true}, // rank 990: ten beyond
		{19, 50, false},
		{20, 50, true},
		{100, 99, false},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// benchmarkJSON mirrors every key of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The catalog and BENCHMARK.json describe the same benchmark, within the
// limits the benchmark contract sets.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, harness nominal %d", bj.RunSeconds, nominalSeconds)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness, 2..8 allowed", n, len(workloads))
	}
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics, caps are 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness (or the rationale differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	var want []spec
	for _, e := range endToEnd {
		if e.everywhere {
			want = append(want, e.spec)
		}
	}
	var got []spec
	setup := false
	for _, e := range bj.EndToEnd {
		name(e.Name)
		got = append(got, spec{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs from the catalog:\n got %v\nwant %v", got, want)
	}
	got = nil
	for _, p := range bj.PerLayer {
		name(p.Name)
		got = append(got, spec{p.Name, p.Unit, p.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs from the catalog:\n got %v\nwant %v", got, perLayer)
	}
	for _, s := range append(append([]spec(nil), want...), perLayer...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", s.Name, s.Unit)
		}
		if s.Better != higher && s.Better != lower {
			t.Errorf("%s: better is %q", s.Name, s.Better)
		}
	}
}

func TestReportRoundTrips(t *testing.T) {
	m := Metrics{}
	m.set("throughput_ops_s", 1820.4444444444443)
	m.set("setup_s", 0.001334351)
	l := Metrics{}
	l.set("sim.switches", 1904400)
	in := Report{Seed: 7, Seconds: 2.5, Workloads: []WorkloadResult{{
		Name: "web-short", Correct: true, Attempted: 12814, LatencySamples: 8192,
		Failures: []string{"x"}, EndToEnd: m, PerLayer: l,
	}}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("report changed in a round trip:\n in %+v\nout %+v", in, out)
	}
	first, _ := os.ReadFile(path)
	if err := writeReport(path, out); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if !bytes.Equal(first, second) {
		t.Error("the same report serialized to different bytes")
	}
}

// virtual drops the host-clock metrics, which no two runs share.
func virtual(m Metrics) []byte {
	v := Metrics{}
	for k, x := range m {
		if !strings.HasPrefix(k, "host_") && k != "setup_s" {
			v[k] = x
		}
	}
	b, _ := json.Marshal(v)
	return b
}

// Every workload, at a tenth of its window, is a pure function of the
// seed on the virtual clock, and its oracle passes.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, scale: 0.1, endToEnd: true, setups: 3}
			a, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || a.EndToEnd["failed_ops_pct"].Value != 0 {
				t.Errorf("incorrect run: %d of %d failed: %v", a.Failed, a.Attempted, a.Failures)
			}
			if va, vb := virtual(a.EndToEnd), virtual(b.EndToEnd); !bytes.Equal(va, vb) {
				t.Errorf("virtual metrics differ between two runs of one seed:\n%s\n%s", va, vb)
			}
			for _, e := range endToEnd {
				if m, ok := a.EndToEnd[e.Name]; e.everywhere && (!ok || m.Value <= 0) {
					t.Errorf("%s = %v: defined on every workload and never zero", e.Name, m.Value)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr, _ := specOf("throughput_ops_s")
	lat, _ := specOf("latency_p50_ms")
	setup, _ := specOf("setup_s")
	for _, tc := range []struct {
		s     spec
		bound float64
		a, b  float64
		want  string
	}{
		{thr, 0.02, 1000, 1000, "unchanged"},
		{thr, 0.02, 1000, 985, "unchanged"},
		{thr, 0.02, 1000, 975, "regressed"},
		{thr, 0.02, 1000, 1030, "improved"},
		{lat, 0.02, 10, 10.3, "regressed"},
		{lat, 0.02, 10, 9.5, "improved"},
		{setup, 0.25, 0.001, 0.2, "unchanged"}, // inside the absolute slack
		{setup, 0.25, 0.001, 0.3, "regressed"},
	} {
		if got := verdict(tc.s, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v at %v: %s, want %s", tc.s.Name, tc.a, tc.b, tc.bound, got, tc.want)
		}
	}

	dir := t.TempDir()
	mk := func(file string, throughput, failedPct float64) string {
		m := Metrics{}
		m.set("throughput_ops_s", throughput)
		m.set("failed_ops_pct", failedPct)
		p := filepath.Join(dir, file)
		if err := writeReport(p, Report{Seed: 1, Seconds: 10, Workloads: []WorkloadResult{
			{Name: "web-short", Correct: true, Attempted: 10, EndToEnd: m}}}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := mk("a.json", 1000, 0)
	for _, tc := range []struct {
		other string
		ok    bool
		line  string
	}{
		{mk("same.json", 1000, 0), true, "0 improved, 2 unchanged, 0 regressed, 0 unresolved"},
		{mk("slow.json", 900, 0), false, "0 improved, 1 unchanged, 1 regressed, 0 unresolved"},
		{mk("lossy.json", 1000, 0.5), false, "0 improved, 1 unchanged, 1 regressed, 0 unresolved"},
	} {
		var buf bytes.Buffer
		ok, err := compareReports(&buf, base, tc.other, spec)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(buf.String(), tc.line) {
			t.Errorf("compare against %s: ok=%v, output:\n%s\nwant ok=%v and %q", tc.other, ok, buf.String(), tc.ok, tc.line)
		}
	}
}
