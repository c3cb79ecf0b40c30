package bench

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Claim is one number the paper reports for an experiment. Metric names a
// ratio of the report, or a point's value as name@label=value[,label=value].
// The reproduction matches the paper when the measured value lies in
// [Lo, Hi]; Cause says why it departs when it does not.
type Claim struct {
	Metric        string
	Paper, Lo, Hi float64
	Cause         string
}

// claims are the paper's numbers, by experiment: the rows EXPERIMENTS.md's
// ✅ and ⚠️ marks are the verdicts of. A share is accepted within about a
// tenth of the paper's value, a rate within a quarter.
var claims = map[string][]Claim{
	"fig1": { // §2.3: "up to 15%" unrecoverable, another 20% recoverable at 180x
		{"ignored_pct@input=180x", 15, 13.5, 16.5, ""},
		{"delayed_pct@input=180x", 20, 18, 22, ""},
	},
	"faults": { // §2.2, at the 180x load
		{"kernel_panic_pct@load=180x,kind=DUE", 15, 13.5, 16.5, ""},
		{"delayed_pct@load=180x,kind=DUE", 20, 18, 22, ""},
	},
	"fig4": { // §4.1 at 50 KB blocks: ~80% of Ubuntu sustained, ~34k msg/s, 4.3 MB/s
		{"pct_of_ubuntu@block_kb=50", 80, 70, 90, "Known deviation 5"},
		{"msg_s@block_kb=50", 34000, 25500, 42500, "Known deviation 9"},
		{"mb_s@block_kb=50", 4.3, 3.2, 5.4, "Known deviation 9"},
	},
	"fig6": { // §4.2: within 20% of Ubuntu below ~1500 req/s (step 8); ~60% for the shortest requests (step 0)
		{"pct_of_ubuntu@step=8", 80, 80, 120, ""},
		{"pct_of_ubuntu@step=0", 60, 50, 70, "Known deviation 6"},
	},
	"mixed": { // §4.3: 760 vs 700 req/s (91%), 1.3 vs 1.4 ms (+8%)
		{"pct_of_ubuntu", 91, 86, 96, ""},
		{"latency_overhead_pct", 8, 3, 13, "Known deviation 7"},
	},
	"fig8": { // §4.4: ~85% of Ubuntu failure-free, a ~5 s outage, 99% of it the NIC driver reload
		{"ft_pct_of_linux", 85, 80, 90, ""},
		{"outage_s", 5, 4, 6, ""},
		{"driver_reload_pct_of_outage", 99, 95, 100, ""},
	},
	"latency": { // §1, citing Guerraoui et al.: 0.55 µs vs 135 µs
		{"lan_over_mailbox", 245, 184, 306, ""},
	},
}

// verdicts renders an experiment's claims against its report, one line
// each: ✅ when the measured value lies in [Lo, Hi], ⚠️ and the cause when
// not.
func verdicts(r *Report, cs []Claim) (string, error) {
	var b strings.Builder
	for _, c := range cs {
		name, at, ok := strings.Cut(c.Metric, "@")
		values := r.Ratios
		if ok {
			var kv []any
			for _, pair := range strings.Split(at, ",") {
				k, v, _ := strings.Cut(pair, "=")
				kv = append(kv, k, v)
			}
			p, err := r.Point(kv...)
			if err != nil {
				return "", err
			}
			values = p.Values
		}
		i := slices.IndexFunc(values, func(v Named) bool { return v.Name == name })
		if i < 0 {
			return "", fmt.Errorf("%s report has no %s", r.Exp, c.Metric)
		}
		m := values[i].Metric
		mark, cause := "✅", ""
		if m.Value < c.Lo || m.Value > c.Hi {
			mark, cause = "⚠️", ": "+c.Cause
		}
		fmt.Fprintf(&b, "%s %s = %s (paper %g, accepted %g to %g)%s\n", mark, c.Metric, m, c.Paper, c.Lo, c.Hi, cause)
	}
	return b.String(), nil
}

// checkClaimMarks: every experiment with claims has a block tagged
// <!-- claims:<exp> --> in EXPERIMENTS.md that is its verdicts on
// experiments.json, and the section holding the block marks nothing
// outside it — so no ✅ or ⚠️ of a paper figure is typed in.
func checkClaimMarks(t *testing.T, doc string, reports map[string]*Report) {
	t.Helper()
	tagged := regexp.MustCompile("(?m)^<!-- claims:(\\w+) -->\n```\n((?:.*\n)*?)```$")
	blocks := tagged.FindAllStringSubmatchIndex(doc, -1)
	if n := len(regexp.MustCompile("(?m)^<!-- claims:").FindAllString(doc, -1)); n != len(blocks) {
		t.Errorf("%d claims tags, but only %d are followed by a fenced block", n, len(blocks))
	}
	seen := make(map[string]bool)
	for _, m := range blocks {
		exp, block := doc[m[2]:m[3]], doc[m[4]:m[5]]
		seen[exp] = true
		r, cs := reports[exp], claims[exp]
		if r == nil || cs == nil {
			t.Errorf("claims block tagged %s: no such experiment with claims", exp)
			continue
		}
		want, err := verdicts(r, cs)
		if err != nil {
			t.Errorf("claims of %s: %v", exp, err)
		} else if block != want {
			t.Errorf("claims block of %s is not its verdicts on experiments.json:\n%s\nwant:\n%s", exp, block, want)
		}
		start := strings.LastIndex(doc[:m[0]], "\n## ")
		end := strings.Index(doc[m[1]:], "\n## ")
		if end < 0 {
			end = len(doc) - m[1]
		}
		for _, prose := range []string{doc[start:m[0]], doc[m[1] : m[1]+end]} {
			if strings.Contains(prose, "✅") || strings.Contains(prose, "⚠️") {
				t.Errorf("the section of %s's claims block marks a verdict outside it", exp)
			}
		}
	}
	for exp := range claims {
		if !seen[exp] {
			t.Errorf("EXPERIMENTS.md shows no claims block of %s", exp)
		}
	}
}

// TestClaimVerdicts: a claim reads a ratio or a point's value, holds inside
// [Lo, Hi] and names its cause outside it, and a metric the report lacks
// is an error, not a verdict.
func TestClaimVerdicts(t *testing.T) {
	r := &Report{Exp: "x", Points: []Point{{Labels: []Label{label("kb", 50)}, Values: []Named{val("pct", 79.0, "%")}}},
		Ratios: []Named{val("speedup", 2.5, "x")}}
	got, err := verdicts(r, []Claim{{"pct@kb=50", 80, 70, 90, ""}, {"speedup", 4, 3, 5, "Known deviation 1"}})
	want := "✅ pct@kb=50 = 79.0% (paper 80, accepted 70 to 90)\n⚠️ speedup = 2.5x (paper 4, accepted 3 to 5): Known deviation 1\n"
	if err != nil || got != want {
		t.Errorf("verdicts = %q, %v, want %q", got, err, want)
	}
	if _, err := verdicts(r, []Claim{{"pct@kb=40", 80, 70, 90, ""}}); err == nil {
		t.Error("a claim on a missing point rendered a verdict")
	}
}
