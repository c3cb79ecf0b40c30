package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// mustPoint is Report.Point for tests.
func mustPoint(t *testing.T, r Report, kv ...any) *Point {
	t.Helper()
	p, err := r.Point(kv...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ratioOf returns the named ratio of a report.
func ratioOf(t *testing.T, r Report, name string) float64 {
	t.Helper()
	for _, m := range r.Ratios {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s report carries no ratio %q", r.Exp, name)
	return 0
}

func TestFig1Shape(t *testing.T) {
	r, err := fig1(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 7 {
		t.Fatalf("%d rows", len(r.Points))
	}
	last := mustPoint(t, r, "input", "180x")
	if v := last.Value("ignored_pct"); v < 12 || v > 18 {
		t.Errorf("Ignored@180x = %.1f%%, paper ~15%%", v)
	}
	if v := last.Value("delayed_pct"); v < 17 || v > 23 {
		t.Errorf("Delayed@180x = %.1f%%, paper ~20%%", v)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Value("user_pct") <= r.Points[i-1].Value("user_pct") {
			t.Error("User share not growing with input size")
		}
	}
}

func TestFaultOutcomesSumToOne(t *testing.T) {
	r, err := faults(1, false)
	if err != nil {
		t.Fatal(err)
	}
	due := mustPoint(t, r, "load", "180x", "kind", "DUE")
	sum := due.Value("kernel_panic_pct") + due.Value("delayed_pct") + due.Value("user_kill_pct") + due.Value("absorbed_pct")
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("outcome shares sum to %v%%", sum)
	}
	if v := due.Value("kernel_panic_pct"); v < 10 || v > 20 {
		t.Errorf("kernel-panic share %.1f%%, paper ~15%%", v)
	}
	if v := mustPoint(t, r, "load", "180x", "kind", "CE").Value("absorbed_pct"); v != 100 {
		t.Errorf("corrected errors should always be absorbed, got %v%%", v)
	}
}

func TestPBZIPPointShape(t *testing.T) {
	t.Parallel()
	r, err := pbzip(1, []int{100}, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPoint(t, r, "block_kb", 100)
	if v := p.Value("ubuntu_blocks_s"); v < 900 || v > 1050 {
		t.Errorf("Ubuntu = %.0f blocks/s at 100KB, expected ~966", v)
	}
	if v := p.Value("pct_of_ubuntu"); v < 90 {
		t.Errorf("FT sustained at %.1f%% of Ubuntu at 100KB; paper reports it close", v)
	}
	if v := p.Value("msg_s"); v < 1000 {
		t.Errorf("traffic %.0f msg/s implausibly low", v)
	}
}

// latencyReport is shared by the two tests that read it.
func latencyReport(t *testing.T) Report {
	t.Helper()
	r, err := latency(1, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIntraVsInterLatency(t *testing.T) {
	r := latencyReport(t)
	if d := time.Duration(mustPoint(t, r, "path", "shared-memory mailbox").Value("delay_ns")); d > 2*time.Microsecond {
		t.Errorf("intra-machine latency %v, paper-scale is sub-microsecond", d)
	}
	if d := time.Duration(mustPoint(t, r, "path", "LAN").Value("delay_ns")); d < 100*time.Microsecond {
		t.Errorf("LAN latency %v, expected ~135us", d)
	}
	if v := ratioOf(t, r, "lan_over_mailbox"); v < 100 {
		t.Errorf("ratio %.0fx, paper reports ~245x", v)
	}
}

func TestWakeLatencyModel(t *testing.T) {
	r := latencyReport(t)
	delay := func(path string) float64 { return mustPoint(t, r, "path", path).Value("delay_ns") }
	if delay("wake: idle 5ms, avg") <= delay("wake: busy hand-off") {
		t.Error("idle wake not more expensive than busy hand-off")
	}
	if d := time.Duration(delay("wake: idle 5ms, max")); d < 100*time.Microsecond {
		t.Errorf("idle wake max %v — the deep-idle tail is missing", d)
	}
}

func TestTableFormatting(t *testing.T) {
	r := Report{
		Exp:    "demo",
		Params: []Label{label("iters", 3)},
		Points: []Point{
			{Labels: []Label{label("a", "x")}, Values: []Named{val("wait_ns", 1340, "ns"), val("pct", 12.34, "%"), val("n", 333, "count"), val("rate", 1234.5, "1/s")}},
			{Labels: []Label{label("a", "yyyy")}, Values: []Named{val("wait_ns", 0, "ns"), val("pct", 100, "%"), val("n", 4, "count"), val("rate", 1.25, "1/s")}},
		},
		Ratios: []Named{val("speedup", 391.2589, "x")},
	}
	var sb strings.Builder
	r.Table(&sb)
	want := strings.Join([]string{
		"params: iters=3",
		"a     wait_ns  pct     n    rate",
		"-     -------  ---     -    ----",
		"x     1.34µs   12.3%   333  1234",
		"yyyy  0s       100.0%  4    1.2",
		"speedup = 391.26x",
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

// recorded reads experiments.json, the checked-in record `make experiments`
// regenerates.
func recorded(t *testing.T) []Report {
	t.Helper()
	data, err := os.ReadFile("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("experiments.json: %v", err)
	}
	return reports
}

// TestRecordHoldsEveryExperiment: experiments.json holds one seed-1 report
// per registered experiment, in registry order — what `ftbench -exp all
// -quick -json` writes.
func TestRecordHoldsEveryExperiment(t *testing.T) {
	var got, want []string
	for _, r := range recorded(t) {
		got = append(got, fmt.Sprintf("%s@%d", r.Exp, r.Seed))
	}
	for _, e := range Experiments {
		want = append(want, e.Name+"@1")
	}
	if !slices.Equal(got, want) {
		t.Errorf("experiments.json holds %v, want %v: regenerate it with `make experiments`", got, want)
	}
}

// TestReportsAreDeterministic runs the cheap experiments twice at one seed:
// the two reports must marshal to the same bytes (no host clock, no map
// order anywhere), survive a JSON round trip, give every point the same
// label and value names in the same order — and equal their entry of
// experiments.json at full precision, so a change that moves a number
// without regenerating the record fails here and not only in CI's
// measurements job. (fig4, fig6, mixed, fig8, ablations and epoch take
// seconds each; that job compares their entries.)
func TestReportsAreDeterministic(t *testing.T) {
	record := make(map[string]Report)
	for _, r := range recorded(t) {
		record[r.Exp] = r
	}
	for _, name := range []string{"fig1", "faults", "latency", "batching", "detshard", "fabric", "critpath", "nway"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("no experiment %q", name)
			}
			var runs [2][]byte
			var report Report
			for i := range runs {
				r, err := e.Run(1, true)
				if err != nil {
					t.Fatal(err)
				}
				if runs[i], err = json.MarshalIndent(r, "", "  "); err != nil {
					t.Fatal(err)
				}
				report = r
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Fatal("two runs at seed 1 marshal differently")
			}
			var back Report
			if err := json.Unmarshal(runs[0], &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, report) {
				t.Error("report does not survive a JSON round trip")
			}
			if report.Exp != e.Name || len(report.Points) == 0 {
				t.Fatalf("report of %s: exp %q, %d points", e.Name, report.Exp, len(report.Points))
			}
			names := func(p Point) (out []string) {
				for _, l := range p.Labels {
					out = append(out, "label "+l.Name)
				}
				for _, v := range p.Values {
					out = append(out, "value "+v.Name+" "+v.Unit)
				}
				return out
			}
			for _, p := range report.Points[1:] {
				if !reflect.DeepEqual(names(p), names(report.Points[0])) {
					t.Fatalf("point %v names %v, the first point %v", p.Labels, names(p), names(report.Points[0]))
				}
			}
			if !reflect.DeepEqual(record[name], report) {
				t.Errorf("experiments.json's %s entry is stale: regenerate it with `make experiments`", name)
			}
		})
	}
}

// TestMissingHistogramIsAnError plants what used to measure as a win: a
// metric that is gone from the registry, a required one that never got a
// sample, and a ratio over the zero either of them used to leave behind.
func TestMissingHistogramIsAnError(t *testing.T) {
	// Two threads, four rounds, no output commit.
	loop := lockLoop{threads: 2, locks: 2, iters: 4, think: thinkUS(10, 10)}
	run, err := runSweep(1, core.App{Name: "t", Main: loop.run}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := histogram(run.snap, "ftns.commit.wiat", true); err == nil || !strings.Contains(err.Error(), "ftns.commit.wiat") {
		t.Errorf("a metric the registry does not hold read as %v, want an error naming it", err)
	}
	if _, err := histogram(run.snap, "ftns.commit.wait", false); err == nil || !strings.Contains(err.Error(), "ftns.commit.wait") {
		t.Errorf("a required metric without samples read as %v, want an error naming it", err)
	}
	if h, err := histogram(run.snap, "ftns.commit.wait", true); err != nil || h.Count != 0 {
		t.Errorf("a metric that may be empty: %+v, %v", h, err)
	}
	if h, err := histogram(run.snap, "ftns.shard.wait", false); err != nil || h.Count == 0 {
		t.Errorf("a sampled metric: %+v, %v", h, err)
	}
	if _, err := histogram(obs.NewRegistry().Snapshot(), "ftns.shard.wait", true); err == nil {
		t.Error("an empty registry held ftns.shard.wait")
	}
	run.hist("ftns.shard.wait", false)
	run.hist("ftns.commit.wait", false)
	run.hist("ftns.commit.wiat", false)
	if run.err == nil || !strings.Contains(run.err.Error(), "ftns.commit.wait") {
		t.Errorf("the run kept %v, want the first failed read", run.err)
	}

	r := Report{Exp: "demo", Points: []Point{
		{Labels: []Label{label("shards", 1)}, Values: []Named{val("commit_wait_p50_ns", 524287, "ns")}},
		{Labels: []Label{label("shards", 4)}, Values: []Named{val("commit_wait_p50_ns", 0, "ns")}},
	}}
	d := derive{r: &r}
	d.ratio("speedup", d.v("commit_wait_p50_ns", "shards", 1), d.v("commit_wait_p50_ns", "shards", 4))
	if d.err == nil || !strings.Contains(d.err.Error(), "demo.speedup") || len(r.Ratios) != 0 {
		t.Errorf("a zero denominator gave ratios %v, err %v; want an error naming demo.speedup", r.Ratios, d.err)
	}
	d = derive{r: &r}
	d.ratio("speedup", d.v("commit_wait_p50_ns", "shards", 1), d.v("commit_wait_p50_ns", "shards", 8))
	if d.err == nil || !strings.Contains(d.err.Error(), "shards 8") {
		t.Errorf("a missing cell gave err %v, want an error naming it", d.err)
	}
}
