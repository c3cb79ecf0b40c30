package bench

import (
	"testing"
	"time"
)

// TestEpochSweep runs a trimmed checkpoint sweep and pins the tentpole's
// shape: with epochs off, retention and rejoin time grow with uptime;
// with epochs on, both stay flat at roughly one epoch of history, and the
// headline ratios come out above 1.
func TestEpochSweep(t *testing.T) {
	t.Parallel()
	r, err := epoch(1, []time.Duration{3 * time.Second, 9 * time.Second}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("point count = %d, want 4", len(r.Points))
	}
	for _, p := range r.Points {
		on := p.Label("epochs") == "on"
		if p.Value("divergences") != 0 {
			t.Errorf("%v: %v divergences", p.Labels, p.Value("divergences"))
		}
		if on && p.Value("epoch_cuts") == 0 {
			t.Errorf("%v: epochs on but no cuts recorded", p.Labels)
		}
		if !on && p.Value("epoch_cuts") != 0 {
			t.Errorf("%v: epochs off but %v cuts recorded", p.Labels, p.Value("epoch_cuts"))
		}
	}
	retained := func(uptime int, epochs string) float64 {
		return mustPoint(t, r, "uptime_s", uptime, "epochs", epochs).Value("retained_tuples_at_kill")
	}
	if retained(9, "off") <= 2*retained(3, "off") {
		t.Errorf("epochs-off retention %v -> %v over a 3x uptime range; not growing with history",
			retained(3, "off"), retained(9, "off"))
	}
	if retained(9, "on") > 2*retained(3, "on") {
		t.Errorf("epochs-on retention %v -> %v over a 3x uptime range; not flat",
			retained(3, "on"), retained(9, "on"))
	}
	if v := ratioOf(t, r, "rejoin_speedup"); v <= 1 {
		t.Errorf("rejoin speedup = %.2f, want > 1", v)
	}
	if v := ratioOf(t, r, "retention_savings"); v <= 1 {
		t.Errorf("retention savings = %.2f, want > 1", v)
	}
	if off, on := ratioOf(t, r, "rejoin_growth_off"), ratioOf(t, r, "rejoin_growth_on"); off <= on {
		t.Errorf("rejoin growth off %.2fx <= on %.2fx; epochs-on is not the flatter curve", off, on)
	}
}
