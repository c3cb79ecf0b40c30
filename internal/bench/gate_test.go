package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGate drives the one gate over reports of every gated experiment.
func TestGate(t *testing.T) {
	b := Baselines{Tolerance: 0.2, Ratios: map[string]float64{
		"detshard.commit_wait_p50_speedup":  100, // floor 80
		"detshard.replay_lag_p50_speedup":   5,   // floor 4
		"fabric.adaptive_msg_savings_burst": 1.5, // floor 1.2
		"nway.commit_wait_speedup_n3":       100,
		"epoch.rejoin_speedup":              50, // floor 40
		"epoch.retention_savings":           20, // floor 16
	}}
	for _, tc := range []struct {
		name    string
		exp     string
		ratios  []Named
		checked int
		errs    []string // each must appear in the error; none: the gate passes
	}{
		{name: "detshard within tolerance", exp: "detshard", checked: 2,
			ratios: []Named{val("commit_wait_p50_speedup", 85, "x"), val("replay_lag_p50_speedup", 4.2, "x")}},
		{name: "detshard past tolerance names the ratio", exp: "detshard", checked: 2,
			ratios: []Named{val("commit_wait_p50_speedup", 79, "x"), val("replay_lag_p50_speedup", 5, "x")},
			errs:   []string{"detshard.commit_wait_p50_speedup = 79.000, below floor 80.000"}},
		{name: "fabric unpinned ratios skipped", exp: "fabric", checked: 1,
			ratios: []Named{val("adaptive_vs_best_static_sustained", 0, "x"), val("adaptive_vs_best_static_burst", 0, "x"), val("adaptive_msg_savings_burst", 1.3, "x")}},
		{name: "fabric pinned ratio slips", exp: "fabric", checked: 1,
			ratios: []Named{val("adaptive_vs_best_static_sustained", 0, "x"), val("adaptive_msg_savings_burst", 1.1, "x")},
			errs:   []string{"fabric.adaptive_msg_savings_burst"}},
		{name: "nway within tolerance", exp: "nway", checked: 1,
			ratios: []Named{val("commit_wait_speedup_n3", 85, "x")}},
		{name: "nway past tolerance", exp: "nway", checked: 1,
			ratios: []Named{val("commit_wait_speedup_n3", 79, "x")},
			errs:   []string{"nway.commit_wait_speedup_n3"}},
		{name: "epoch within tolerance with flatness unpinned", exp: "epoch", checked: 2,
			ratios: []Named{val("rejoin_speedup", 42, "x"), val("retention_savings", 17, "x"), val("flatness_gain", 0.1, "x")}},
		{name: "epoch past tolerance", exp: "epoch", checked: 2,
			ratios: []Named{val("rejoin_speedup", 39, "x"), val("retention_savings", 17, "x")},
			errs:   []string{"epoch.rejoin_speedup"}},
		{name: "every slip is named", exp: "epoch", checked: 2,
			ratios: []Named{val("rejoin_speedup", 39, "x"), val("retention_savings", 15, "x")},
			errs:   []string{"epoch.rejoin_speedup", "epoch.retention_savings"}},
		{name: "pinned but unreported is an error", exp: "detshard", checked: 1,
			ratios: []Named{val("commit_wait_p50_speedup", 100, "x")},
			errs:   []string{"detshard.replay_lag_p50_speedup is pinned"}},
		{name: "no pinned ratio", exp: "critpath", checked: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checked, err := Gate(Report{Exp: tc.exp, Ratios: tc.ratios}, b)
			if checked != tc.checked {
				t.Errorf("checked %d ratios, want %d", checked, tc.checked)
			}
			if len(tc.errs) == 0 && err != nil {
				t.Fatalf("gate failed: %v", err)
			}
			for _, want := range tc.errs {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("gate error %v does not name %q", err, want)
				}
			}
			if err != nil && strings.Count(err.Error(), "\n")+1 != len(tc.errs) {
				t.Errorf("gate error has other lines than %q:\n%v", tc.errs, err)
			}
		})
	}
}

func TestLoadBaselinesValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		file, wantErr string
	}{
		"zero tolerance":       {`{"tolerance": 0, "ratios": {}}`, "tolerance"},
		"tolerance of one":     {`{"tolerance": 1, "ratios": {}}`, "tolerance"},
		"unknown experiment":   {`{"tolerance": 0.25, "ratios": {"detshrad.commit_wait_p50_speedup": 10}}`, "detshrad"},
		"pin that is not > 0":  {`{"tolerance": 0.25, "ratios": {"detshard.commit_wait_p50_speedup": 0}}`, "positive"},
		"the per-sweep schema": {`{"tolerance": 0.25, "detshard": {"commit_wait_p50_speedup": 10}}`, "detshard"},
		"good":                 {`{"tolerance": 0.25, "ratios": {"detshard.commit_wait_p50_speedup": 10}}`, ""},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "baselines.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := LoadBaselines(path)
			if tc.wantErr == "" {
				if err != nil || b.Ratios["detshard.commit_wait_p50_speedup"] != 10 {
					t.Fatalf("loaded %+v, %v", b, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
			}
		})
	}
}

// TestRepoBaselinesLoad: the checked-in baseline file parses and pins
// every headline ratio the gate has checked so far, plus the one that took
// over CI's "epochs-on rejoin stays flat" assertion — each at exactly the
// value the checked-in BENCH_<exp>.json reports, so a ratio that drifts
// inside the tolerance is re-pinned by a deliberate edit, not left behind.
func TestRepoBaselinesLoad(t *testing.T) {
	b, err := LoadBaselines("../../goldens/bench-baselines.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := []string{
		"detshard.commit_wait_p50_speedup",
		"detshard.replay_lag_p50_speedup",
		"fabric.adaptive_vs_best_static_sustained",
		"fabric.adaptive_vs_best_static_burst",
		"fabric.adaptive_msg_savings_burst",
		"nway.commit_wait_speedup_n3",
		"epoch.rejoin_speedup",
		"epoch.retention_savings",
		"epoch.flatness_gain",
		"epoch.rejoin_flatness_on",
	}
	reports := make(map[string]Report)
	for _, name := range pinned {
		if b.Ratios[name] <= 0 {
			t.Errorf("%s not pinned", name)
			continue
		}
		exp, ratio, _ := strings.Cut(name, ".")
		r, ok := reports[exp]
		if !ok {
			data, err := os.ReadFile("../../BENCH_" + exp + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatalf("BENCH_%s.json: %v", exp, err)
			}
			reports[exp] = r
		}
		i := slices.IndexFunc(r.Ratios, func(m Named) bool { return m.Name == ratio })
		if i < 0 || r.Ratios[i].Value != b.Ratios[name] {
			t.Errorf("%s pinned at %v, BENCH_%s.json reports %+v: re-pin it, or regenerate the report", name, b.Ratios[name], exp, r.Ratios)
		}
	}
	if len(b.Ratios) != len(pinned) {
		t.Errorf("%d ratios pinned, want %d", len(b.Ratios), len(pinned))
	}
}
